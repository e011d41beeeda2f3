// stream.go is not an event-time file, so inside the stream package it
// sits outside the rule entirely: cold generators may format freely,
// even in loops.
package stream

import "fmt"

// vocabulary formats in a loop at generator construction — legal here.
func vocabulary(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("w%03d", i))
	}
	return out
}
