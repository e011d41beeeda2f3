// watermark.go is an event-time file, so on top of the general table
// the strict loop bans apply: no fmt and no per-row tuple boxing inside
// loops.
package hot

import (
	"fmt"
	"io"

	"fixture/tuple"
)

// mergeWatermarks is the shape event-time loops should have: a scan
// over producer slots with no allocation.
func mergeWatermarks(slots []int64) int64 {
	lo := slots[0]
	for _, wm := range slots[1:] {
		if wm < lo {
			lo = wm
		}
	}
	return lo
}

// traceSlots formats per slot inside the loop: banned even when the
// writer discards.
func traceSlots(w io.Writer, slots []int64) {
	for i, wm := range slots {
		fmt.Fprintf(w, "slot %d wm %d\n", i, wm) // want `fmt\.Fprintf inside an event-time loop runs per element`
	}
}

// dumpOnce is a deliberate per-slot formatter on a debug path; the
// suppression keeps it visible to the linter.
func dumpOnce(w io.Writer, slots []int64) {
	for _, wm := range slots {
		//lint:ignore hotpath-alloc debug dump runs once per failed run, not per message
		fmt.Fprintln(w, wm)
	}
}

// firePanes boxes a fresh tuple per pane inside the loop: banned.
func firePanes(sums []int64, emit func(*tuple.Tuple)) {
	for _, s := range sums {
		t := tuple.Get(1) // want `tuple\.Get inside an event-time loop boxes a pooled row`
		t.Values[0] = s
		emit(t)
	}
}

// fireSessions emits one result per closed session — the output itself
// is the allocation, so the suppression carries that reason.
func fireSessions(sums []int64, emit func(*tuple.Tuple)) {
	for _, s := range sums {
		//lint:ignore hotpath-alloc each closed session emits exactly one new result tuple
		t := tuple.Get(1)
		t.Values[0] = s
		emit(t)
	}
}
