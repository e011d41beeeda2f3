package core

import (
	"math"
	"strings"
	"testing"

	"pdspbench/internal/tuple"
)

// linearPlan builds source → filter → aggregate → sink, the paper's
// simplest synthetic structure.
func linearPlan() *PQP {
	p := NewPQP("linear-test", "linear")
	schema := tuple.NewSchema(
		tuple.Field{Name: "k", Type: tuple.TypeInt},
		tuple.Field{Name: "v", Type: tuple.TypeDouble},
	)
	p.Add(&Operator{ID: "src", Kind: OpSource, Parallelism: 1,
		Source: &SourceSpec{Schema: schema, EventRate: 1000}, OutWidth: 2})
	p.Add(&Operator{ID: "f1", Kind: OpFilter, Parallelism: 4, Partition: PartitionRebalance,
		Filter: &FilterSpec{Field: 1, Fn: FilterGreater, Literal: tuple.Double(0.5), Selectivity: 0.5}, OutWidth: 2})
	p.Add(&Operator{ID: "agg", Kind: OpAggregate, Parallelism: 2, Partition: PartitionHash,
		Agg: &AggregateSpec{Window: WindowSpec{Type: WindowTumbling, Policy: PolicyCount, LengthTups: 100}, Fn: AggSum, Field: 1, KeyField: 0}, OutWidth: 2})
	p.Add(&Operator{ID: "sink", Kind: OpSink, Parallelism: 1, Partition: PartitionRebalance})
	p.Connect("src", "f1")
	p.Connect("f1", "agg")
	p.Connect("agg", "sink")
	return p
}

// joinPlan builds the paper's Figure 2 2-way join: two sources, two
// filters, a windowed join, an aggregate and a sink.
func joinPlan() *PQP {
	p := NewPQP("2way-test", "2-way-join")
	schema := tuple.NewSchema(
		tuple.Field{Name: "k", Type: tuple.TypeInt},
		tuple.Field{Name: "v", Type: tuple.TypeDouble},
	)
	for _, id := range []string{"src1", "src2"} {
		p.Add(&Operator{ID: id, Kind: OpSource, Parallelism: 1,
			Source: &SourceSpec{Schema: schema, EventRate: 1000}, OutWidth: 2})
	}
	p.Add(&Operator{ID: "f1", Kind: OpFilter, Parallelism: 2, Partition: PartitionRebalance,
		Filter: &FilterSpec{Field: 0, Fn: FilterLess, Literal: tuple.Int(500), Selectivity: 0.5}, OutWidth: 2})
	p.Add(&Operator{ID: "f2", Kind: OpFilter, Parallelism: 2, Partition: PartitionRebalance,
		Filter: &FilterSpec{Field: 0, Fn: FilterLess, Literal: tuple.Int(500), Selectivity: 0.5}, OutWidth: 2})
	p.Add(&Operator{ID: "join", Kind: OpJoin, Parallelism: 4, Partition: PartitionHash,
		Join: &JoinSpec{Window: WindowSpec{Type: WindowSliding, Policy: PolicyTime, LengthMs: 1000, SlideRatio: 0.5}, LeftField: 0, RightField: 0}, OutWidth: 4})
	p.Add(&Operator{ID: "sink", Kind: OpSink, Parallelism: 1})
	p.Connect("src1", "f1")
	p.Connect("src2", "f2")
	p.Connect("f1", "join")
	p.Connect("f2", "join")
	p.Connect("join", "sink")
	return p
}

func TestValidateAcceptsWellFormedPlans(t *testing.T) {
	for _, p := range []*PQP{linearPlan(), joinPlan()} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", p.Name, err)
		}
	}
}

func TestValidateRejectsMalformedPlans(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PQP) *PQP
	}{
		{"no source", func(p *PQP) *PQP {
			q := NewPQP("bad", "x")
			q.Add(&Operator{ID: "sink", Kind: OpSink, Parallelism: 1})
			return q
		}},
		{"no sink", func(p *PQP) *PQP {
			q := NewPQP("bad", "x")
			q.Add(&Operator{ID: "src", Kind: OpSource, Parallelism: 1,
				Source: &SourceSpec{Schema: tuple.NewSchema(tuple.Field{Name: "a", Type: tuple.TypeInt}), EventRate: 1}})
			return q
		}},
		{"cycle", func(p *PQP) *PQP {
			p.Connect("sink", "f1")
			return p
		}},
		{"join with one input", func(p *PQP) *PQP {
			j := joinPlan()
			// Remove one edge into the join.
			var edges []Edge
			for _, e := range j.Edges {
				if !(e.From == "f2" && e.To == "join") {
					edges = append(edges, e)
				}
			}
			j.Edges = edges
			return j
		}},
		{"zero parallelism", func(p *PQP) *PQP {
			p.Op("f1").Parallelism = 0
			return p
		}},
		{"source with input", func(p *PQP) *PQP {
			p.Connect("f1", "src")
			return p
		}},
		{"dangling edge", func(p *PQP) *PQP {
			p.Connect("f1", "ghost")
			return p
		}},
		{"filter without spec", func(p *PQP) *PQP {
			p.Op("f1").Filter = nil
			return p
		}},
		{"bad window", func(p *PQP) *PQP {
			p.Op("agg").Agg.Window.LengthTups = 0
			return p
		}},
		{"zero event rate", func(p *PQP) *PQP {
			p.Op("src").Source.EventRate = 0
			return p
		}},
	}
	for _, c := range cases {
		p := c.mutate(linearPlan())
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed plan", c.name)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	p := joinPlan()
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range p.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %s→%s violated in order %v", e.From, e.To, order)
		}
	}
	if len(order) != len(p.Operators) {
		t.Errorf("order has %d ops, want %d", len(order), len(p.Operators))
	}
}

func TestUpstreamDownstreamAndJoinInputOrder(t *testing.T) {
	p := joinPlan()
	ups := p.Upstream("join")
	if len(ups) != 2 || ups[0] != "f1" || ups[1] != "f2" {
		t.Errorf("Upstream(join) = %v, want [f1 f2] in edge order", ups)
	}
	downs := p.Downstream("src1")
	if len(downs) != 1 || downs[0] != "f1" {
		t.Errorf("Downstream(src1) = %v", downs)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := joinPlan()
	q := p.Clone()
	q.Op("join").Parallelism = 99
	q.Op("join").Join.Window.LengthMs = 42
	q.Op("f1").Filter.Selectivity = 0.01
	if p.Op("join").Parallelism == 99 {
		t.Error("clone aliases Parallelism")
	}
	if p.Op("join").Join.Window.LengthMs == 42 {
		t.Error("clone aliases JoinSpec")
	}
	if p.Op("f1").Filter.Selectivity == 0.01 {
		t.Error("clone aliases FilterSpec")
	}
	if err := q.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestSetUniformParallelismSkipsSourcesAndSinks(t *testing.T) {
	p := joinPlan()
	p.SetUniformParallelism(16)
	if p.Op("src1").Parallelism != 1 || p.Op("sink").Parallelism != 1 {
		t.Error("SetUniformParallelism should not change sources/sinks")
	}
	if p.Op("f1").Parallelism != 16 || p.Op("join").Parallelism != 16 {
		t.Error("SetUniformParallelism did not set processing operators")
	}
}

func TestTotalInstancesAndCounts(t *testing.T) {
	p := joinPlan()
	// src1(1)+src2(1)+f1(2)+f2(2)+join(4)+sink(1) = 11
	if got := p.TotalInstances(); got != 11 {
		t.Errorf("TotalInstances = %d, want 11", got)
	}
	if got := p.CountKind(OpFilter); got != 2 {
		t.Errorf("CountKind(filter) = %d, want 2", got)
	}
	if got := p.CountKind(OpJoin); got != 1 {
		t.Errorf("CountKind(join) = %d, want 1", got)
	}
}

func TestComplexityOrdersStructures(t *testing.T) {
	if linearPlan().Complexity() >= joinPlan().Complexity() {
		t.Error("a join plan must score more complex than a linear plan")
	}
}

func TestFilterFnEval(t *testing.T) {
	nan := tuple.Double(math.NaN())
	negZero := tuple.Double(math.Copysign(0, -1))
	cases := []struct {
		fn   FilterFn
		v    tuple.Value
		lit  tuple.Value
		want bool
	}{
		{FilterLess, tuple.Int(1), tuple.Int(2), true},
		{FilterLess, tuple.Int(2), tuple.Int(2), false},
		{FilterLessEq, tuple.Int(2), tuple.Int(2), true},
		{FilterGreater, tuple.Double(3), tuple.Double(2), true},
		{FilterGreaterEq, tuple.Double(2), tuple.Double(2), true},
		{FilterEq, tuple.String("a"), tuple.String("a"), true},
		{FilterNotEq, tuple.String("a"), tuple.String("b"), true},
		{FilterStartsWith, tuple.String("hello"), tuple.String("he"), true},
		{FilterStartsWith, tuple.String("hello"), tuple.String("lo"), false},
		{FilterStartsWith, tuple.Int(5), tuple.String("5"), false}, // wrong kind
		{FilterContains, tuple.String("hello"), tuple.String("ell"), true},
		{FilterContains, tuple.String("hello"), tuple.String("xyz"), false},
		{FilterContains, tuple.String("hello"), tuple.String(""), true},
		// NaN compares equal to everything under Compare (neither < nor >)
		// but unequal under Equal, as the value or as the literal.
		{FilterLess, nan, tuple.Double(0.5), false},
		{FilterLessEq, nan, tuple.Double(0.5), true},
		{FilterGreater, nan, tuple.Double(0.5), false},
		{FilterGreaterEq, nan, tuple.Double(0.5), true},
		{FilterEq, nan, tuple.Double(0.5), false},
		{FilterNotEq, nan, tuple.Double(0.5), true},
		{FilterLess, tuple.Double(0.5), nan, false},
		{FilterGreaterEq, tuple.Double(0.5), nan, true},
		{FilterEq, tuple.Double(0.5), nan, false},
		{FilterNotEq, tuple.Double(0.5), nan, true},
		{FilterEq, nan, nan, false},
		{FilterNotEq, nan, nan, true},
		// Negative zero equals zero.
		{FilterEq, negZero, tuple.Double(0), true},
		{FilterNotEq, negZero, tuple.Double(0), false},
		{FilterLess, negZero, tuple.Double(0), false},
		{FilterGreaterEq, negZero, tuple.Double(0), true},
		// Infinities order beyond the finite extremes.
		{FilterGreater, tuple.Double(math.Inf(1)), tuple.Double(math.MaxFloat64), true},
		{FilterLessEq, tuple.Double(math.Inf(1)), tuple.Double(math.MaxFloat64), false},
		{FilterLess, tuple.Double(math.Inf(-1)), tuple.Double(-math.MaxFloat64), true},
		{FilterGreaterEq, tuple.Double(math.Inf(-1)), tuple.Double(-math.MaxFloat64), false},
		{FilterEq, tuple.Double(math.Inf(1)), tuple.Double(math.Inf(1)), true},
		// Integer extremes compare without overflow.
		{FilterLess, tuple.Int(math.MinInt64), tuple.Int(math.MaxInt64), true},
		{FilterGreaterEq, tuple.Int(math.MinInt64), tuple.Int(math.MaxInt64), false},
		{FilterEq, tuple.Int(math.MaxInt64), tuple.Int(math.MaxInt64), true},
		{FilterLessEq, tuple.Int(math.MaxInt64), tuple.Int(math.MaxInt64), true},
		{FilterGreater, tuple.Int(math.MaxInt64), tuple.Int(math.MaxInt64), false},
		// Mixed kinds order by kind (Int before Double), never by value,
		// and are never equal.
		{FilterLess, tuple.Int(1), tuple.Double(0.5), true},
		{FilterGreater, tuple.Int(1), tuple.Double(0.5), false},
		{FilterEq, tuple.Int(1), tuple.Double(1), false},
		{FilterNotEq, tuple.Int(1), tuple.Double(1), true},
		{FilterLess, tuple.Double(0.5), tuple.Int(1), false},
		{FilterGreaterEq, tuple.Double(0.5), tuple.Int(1), true},
		{FilterEq, tuple.Double(1), tuple.Int(1), false},
		// An unknown function keeps nothing.
		{FilterFn(99), tuple.Int(1), tuple.Int(1), false},
		{FilterFn(99), tuple.Double(0.5), tuple.Double(0.5), false},
	}
	for _, c := range cases {
		if got := c.fn.Eval(c.v, c.lit); got != c.want {
			t.Errorf("%v.Eval(%v, %v) = %v, want %v", c.fn, c.v, c.lit, got, c.want)
		}
	}
}

func TestWindowSpecSlide(t *testing.T) {
	tumble := WindowSpec{Type: WindowTumbling, Policy: PolicyCount, LengthTups: 100}
	if got := tumble.Slide(); got != 100 {
		t.Errorf("tumbling slide = %v, want 100 (full length)", got)
	}
	slide := WindowSpec{Type: WindowSliding, Policy: PolicyCount, LengthTups: 100, SlideRatio: 0.3}
	if got := slide.Slide(); got != 30 {
		t.Errorf("sliding slide = %v, want 30", got)
	}
	timeW := WindowSpec{Type: WindowSliding, Policy: PolicyTime, LengthMs: 1000, SlideRatio: 0.5}
	if got := timeW.Slide(); got != 500 {
		t.Errorf("time sliding slide = %v, want 500", got)
	}
	// Degenerate ratio defaults to 0.5, and slide is floored at 1.
	weird := WindowSpec{Type: WindowSliding, Policy: PolicyCount, LengthTups: 1, SlideRatio: 0.3}
	if got := weird.Slide(); got != 1 {
		t.Errorf("tiny window slide = %v, want 1", got)
	}
}

func TestWindowSpecValidate(t *testing.T) {
	good := []WindowSpec{
		{Type: WindowTumbling, Policy: PolicyCount, LengthTups: 10},
		{Type: WindowSliding, Policy: PolicyTime, LengthMs: 250, SlideRatio: 0.5},
	}
	for _, w := range good {
		if err := w.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", w, err)
		}
	}
	bad := []WindowSpec{
		{Type: WindowTumbling, Policy: PolicyCount, LengthTups: 0},
		{Type: WindowTumbling, Policy: PolicyTime, LengthMs: -5},
		{Type: WindowSliding, Policy: PolicyCount, LengthTups: 10, SlideRatio: 0},
		{Type: WindowSliding, Policy: PolicyCount, LengthTups: 10, SlideRatio: 1.5},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted invalid spec", w)
		}
	}
}

func TestParallelismCategories(t *testing.T) {
	wantDegrees := map[ParallelismCategory]int{
		CatXS: 1, CatS: 2, CatM: 8, CatL: 32, CatXL: 128, CatXXL: 256,
	}
	for c, d := range wantDegrees {
		if c.Degree() != d {
			t.Errorf("%v.Degree() = %d, want %d", c, c.Degree(), d)
		}
	}
	for _, c := range AllCategories {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCategory(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCategory("XXXL"); err == nil {
		t.Error("ParseCategory accepted unknown label")
	}
}

func TestCategoryForDegree(t *testing.T) {
	cases := []struct {
		d    int
		want ParallelismCategory
	}{
		{1, CatXS}, {2, CatS}, {3, CatS}, {8, CatM}, {16, CatM},
		{28, CatL}, {32, CatL}, {100, CatXL}, {128, CatXL}, {256, CatXXL}, {1000, CatXXL},
	}
	for _, c := range cases {
		if got := CategoryForDegree(c.d); got != c.want {
			t.Errorf("CategoryForDegree(%d) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestOperatorSelectivityAndCost(t *testing.T) {
	p := joinPlan()
	if got := p.Op("f1").Selectivity(); got != 0.5 {
		t.Errorf("filter selectivity = %v, want 0.5", got)
	}
	agg := linearPlan().Op("agg")
	if got := agg.Selectivity(); got != 0.01 { // 1/slide = 1/100
		t.Errorf("aggregate selectivity = %v, want 0.01", got)
	}
	if p.Op("join").CostFactor() <= p.Op("f1").CostFactor() {
		t.Error("join must cost more per tuple than filter")
	}
	udo := &Operator{Kind: OpUDO, UDO: &UDOSpec{CostFactor: 9, Selectivity: 0.25}}
	if udo.CostFactor() != 9 || udo.Selectivity() != 0.25 {
		t.Errorf("UDO cost/selectivity = %v/%v", udo.CostFactor(), udo.Selectivity())
	}
}

func TestDOTOutput(t *testing.T) {
	dot := joinPlan().DOT()
	for _, frag := range []string{"digraph", `"join"`, `"src1" -> "f1"`, "p=4"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestStringSummaries(t *testing.T) {
	s := linearPlan().String()
	if !strings.Contains(s, "source×1") || !strings.Contains(s, "filter×4") {
		t.Errorf("PQP.String() = %q", s)
	}
	if OpJoin.String() != "join" || PartitionHash.String() != "hashing" ||
		AggSum.String() != "sum" || WindowSliding.String() != "sliding" ||
		PolicyTime.String() != "time" || FilterGreaterEq.String() != ">=" {
		t.Error("enum String() methods disagree with paper vocabulary")
	}
}

func TestAddPanicsOnDuplicateID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate operator ID")
		}
	}()
	p := NewPQP("dup", "x")
	p.Add(&Operator{ID: "a", Kind: OpSource})
	p.Add(&Operator{ID: "a", Kind: OpSink})
}
