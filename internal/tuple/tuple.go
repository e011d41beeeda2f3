// Package tuple defines the data model shared by every PDSP-Bench
// component: typed values, schemas and timestamped stream tuples.
//
// Values are stored unboxed (a kind tag plus one field per kind) so that
// hot paths in the engine do not allocate per value.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Type enumerates the data types supported by PDSP-Bench streams. The
// paper's workload generator draws join and filter data types from
// {string, integer, double} (Table 3).
type Type int

const (
	TypeInt Type = iota
	TypeDouble
	TypeString
)

// String returns the lower-case name used in workload specifications.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeDouble:
		return "double"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType converts a workload-specification name into a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer", "long":
		return TypeInt, nil
	case "double", "float", "float64":
		return TypeDouble, nil
	case "string", "str", "varchar":
		return TypeString, nil
	default:
		return 0, fmt.Errorf("tuple: unknown type %q", s)
	}
}

// AllTypes lists every supported type, in a stable order used by the
// workload enumerator when randomizing schemas.
var AllTypes = []Type{TypeInt, TypeDouble, TypeString}

// Value is a single typed datum. Exactly one of I, D, S is meaningful,
// selected by Kind.
type Value struct {
	Kind Type
	I    int64
	D    float64
	S    string
}

// Int, Double and String construct values of the respective kinds.
func Int(v int64) Value      { return Value{Kind: TypeInt, I: v} }
func Double(v float64) Value { return Value{Kind: TypeDouble, D: v} }
func String(v string) Value  { return Value{Kind: TypeString, S: v} }

// AsFloat converts numeric values to float64; strings convert to their
// length so that aggregate functions remain total over any schema.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case TypeInt:
		return float64(v.I)
	case TypeDouble:
		return v.D
	case TypeString:
		return float64(len(v.S))
	default:
		return 0
	}
}

// String renders the value for logs and golden tests.
func (v Value) String() string {
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeDouble:
		return strconv.FormatFloat(v.D, 'g', -1, 64)
	case TypeString:
		return v.S
	default:
		return "?"
	}
}

// Equal reports exact equality of kind and payload.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case TypeInt:
		return v.I == o.I
	case TypeDouble:
		return v.D == o.D
	case TypeString:
		return v.S == o.S
	}
	return false
}

// Compare orders two values of the same kind: -1 if v<o, 0 if equal,
// +1 if v>o. Values of different kinds are ordered by kind so that the
// comparison stays a total order (filters on mixed kinds never panic).
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case TypeInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
	case TypeDouble:
		switch {
		case v.D < o.D:
			return -1
		case v.D > o.D:
			return 1
		}
	case TypeString:
		return strings.Compare(v.S, o.S)
	}
	return 0
}

// FNV-1a constants (hash/fnv), inlined so hashing stays allocation-free
// on the engine's per-tuple hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a stable 64-bit hash of the value, used by the hash
// partitioning strategy and by windowed joins for key lookup.
//
// The function is an inlined FNV-1a over the same byte stream the
// previous hash.Hash64-based implementation consumed — one kind byte,
// then the little-endian payload (bit pattern for doubles, raw bytes
// for strings) — so hash values are unchanged while the per-call
// hash-state allocation is gone.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(byte(v.Kind))) * fnvPrime64
	switch v.Kind {
	case TypeInt, TypeDouble:
		u := uint64(v.I)
		if v.Kind == TypeDouble {
			// Hash the bit pattern; equal doubles hash equal.
			u = math.Float64bits(v.D)
		}
		for i := 0; i < 64; i += 8 {
			h = (h ^ (u >> i & 0xff)) * fnvPrime64
		}
	case TypeString:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime64
		}
	}
	return h
}

// Field is one named, typed column of a schema.
type Field struct {
	Name string `json:"name"`
	Type Type   `json:"type"`
}

// Schema describes the layout of every tuple on a stream. Tuple width
// (the paper varies 1–15) is len(Fields).
type Schema struct {
	Fields []Field `json:"fields"`
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(fields ...Field) *Schema {
	return &Schema{Fields: fields}
}

// Width returns the number of fields (the paper's "tuple width").
func (s *Schema) Width() int { return len(s.Fields) }

// IndexOf returns the position of the named field, or -1.
func (s *Schema) IndexOf(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldsOfType returns the indexes of all fields with the given type.
func (s *Schema) FieldsOfType(t Type) []int {
	var idx []int
	for i, f := range s.Fields {
		if f.Type == t {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks that field names are unique and non-empty.
func (s *Schema) Validate() error {
	seen := make(map[string]bool, len(s.Fields))
	for i, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("tuple: field %d has empty name", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("tuple: duplicate field name %q", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// String renders the schema as "name:type, ...".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// NoEventTime marks a tuple whose event time has
// not been assigned yet. Sources stamp ingest wall-clock time over it.
// It is an explicit out-of-band marker, not a sentinel inside the valid
// domain: 0 is a legitimate event time (streams whose epoch starts at
// zero produce it on their very first tuple), so "unset" must live
// outside the domain entirely.
const NoEventTime int64 = math.MinInt64

// Tuple is one timestamped event on a data stream.
//
// EventTime is the creation time at the source in nanoseconds (either
// wall-clock for the real engine or simulated time for the simulator);
// end-to-end latency is measured from EventTime to sink delivery, matching
// the paper's definition (source production to sink output).
type Tuple struct {
	Values    []Value
	EventTime int64 // nanoseconds since stream epoch; NoEventTime when unset
	// Ingest is the wall-clock time (UnixNano) the source emitted the
	// tuple; the real engine measures end-to-end latency from it. Derived
	// tuples (aggregates, joins) carry the max of their constituents'.
	Ingest int64
	Seq    uint64
	// pooled marks tuples obtained from Get; only those return to the
	// free list on Release, so caller-owned tuples (test fixtures,
	// replayed traces) are never recycled underneath their owners.
	pooled bool
}

// New builds a tuple from values with the given event time.
func New(eventTime int64, values ...Value) *Tuple {
	return &Tuple{Values: values, EventTime: eventTime}
}

// Width returns the number of values carried.
func (t *Tuple) Width() int { return len(t.Values) }

// At returns the i-th value; it panics on out-of-range like a slice,
// which is the behaviour operator code relies on for schema bugs to
// surface in tests rather than be silently masked.
func (t *Tuple) At(i int) Value { return t.Values[i] }

// Clone deep-copies the tuple so downstream mutation cannot corrupt
// windows that retain it.
func (t *Tuple) Clone() *Tuple {
	vs := make([]Value, len(t.Values))
	copy(vs, t.Values)
	return &Tuple{Values: vs, EventTime: t.EventTime, Ingest: t.Ingest, Seq: t.Seq}
}

// pool is the free list behind Get/Release. High-rate sources allocate
// (and the engine discards) millions of tuples per second; recycling
// them keeps steady-state allocation — and therefore GC pressure — off
// the data plane's hot path.
var pool = sync.Pool{New: func() any { return new(Tuple) }}

// Get returns a recycled (or fresh) tuple with len(Values) == width,
// EventTime set to NoEventTime (unassigned) and the other metadata
// zeroed. The caller owns the tuple and must assign every value slot —
// recycled slots may hold stale values from a previous life. Ownership
// transfers downstream with the tuple; whoever drops it calls Release.
func Get(width int) *Tuple {
	t := pool.Get().(*Tuple)
	t.pooled = true
	t.EventTime, t.Ingest, t.Seq = NoEventTime, 0, 0
	if cap(t.Values) < width {
		t.Values = make([]Value, width)
	} else {
		t.Values = t.Values[:width]
	}
	return t
}

// Release returns a Get-allocated tuple to the free list; calling it on
// an ordinary tuple is a no-op, so drop points can release
// unconditionally. The caller must not touch the tuple afterwards.
func (t *Tuple) Release() {
	if t == nil || !t.pooled {
		return
	}
	t.pooled = false
	pool.Put(t)
}

// ClonePooled deep-copies t into a pooled tuple. The engine's fan-out
// path uses it so clones recycle like source tuples do.
func (t *Tuple) ClonePooled() *Tuple {
	c := Get(len(t.Values))
	copy(c.Values, t.Values)
	c.EventTime, c.Ingest, c.Seq = t.EventTime, t.Ingest, t.Seq
	return c
}

// String renders the tuple for logs and tests.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, "]@%d", t.EventTime)
	return b.String()
}
