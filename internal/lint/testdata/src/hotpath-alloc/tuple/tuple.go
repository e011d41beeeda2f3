// Package tuple mirrors the repo's tuple package shape: a pooled row
// type with a Get constructor. It sits outside the rule's scoped dirs;
// the event-time fixtures import it to exercise the tuple.Get loop ban.
package tuple

// Tuple is a minimal pooled row.
type Tuple struct {
	Values []int64
}

// Get returns a pooled tuple — the boxing call event-time loops must
// avoid.
func Get(width int) *Tuple {
	return &Tuple{Values: make([]int64, width)}
}
