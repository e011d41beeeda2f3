package lint

import (
	"go/ast"
	"path"
	"path/filepath"
	"strings"
)

// hotAllocCalls maps package path → function names whose every call
// allocates, with the zero-allocation replacement the data plane uses.
var hotAllocCalls = map[string]map[string]string{
	"hash/fnv": {
		"New32":  "inline the FNV loop (see tuple.Value.Hash)",
		"New32a": "inline the FNV loop (see tuple.Value.Hash)",
		"New64":  "inline the FNV loop (see tuple.Value.Hash)",
		"New64a": "inline the FNV loop (see tuple.Value.Hash)",
	},
	"time": {
		"After": "reuse a single time.Timer (Reset between waits)",
	},
	"fmt": {
		"Sprintf": "format off the hot path, or build with strconv/strings",
	},
}

// strictOnlyPkgs names the package directories (by base name) where
// only the event-time files are in scope: internal/stream formats in its
// cold generators (stream.Word), so the rule covers just disorder*.go
// there.
var strictOnlyPkgs = map[string]bool{"stream": true}

// eventTimeFile reports whether base names an event-time plane file:
// watermark propagation, session-window state, or disordered delivery.
// Their loops run per message or per arrival — a watermark merge scans
// every producer slot on each marker, session coalescing walks the open
// spans of a key on each tuple — so they get strict loop bans on top of
// the general table.
func eventTimeFile(base string) bool {
	return strings.HasPrefix(base, "watermark") ||
		strings.HasPrefix(base, "session") ||
		strings.HasPrefix(base, "disorder")
}

// HotPathAlloc flags known-allocating constructs inside the data-plane
// packages. These packages move millions of tuples or events per second,
// so a per-call allocation — a hash.Hash64 per partition decision, a
// timer channel per throttle tick, a formatted string per record —
// turns into GC pressure that dominates what the benchmarks measure.
// The rule bans the constructs this repo has already paid to remove,
// so they cannot creep back in.
//
// Event-time files (watermark*.go, session*.go, disorder*.go — including
// those in internal/stream) additionally ban, inside any loop: every fmt
// call, and per-row tuple boxing (tuple.Get). A deliberate per-row
// allocation carries //lint:ignore with its reason, which keeps it
// visible to the linter.
func HotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotpath-alloc",
		Doc: "Data-plane code (internal/engine, internal/des, internal/simengine) must not call " +
			"per-invocation allocators on hot paths: hash/fnv constructors (inline the FNV-1a " +
			"loop), time.After (reuse one time.Timer), or fmt.Sprintf (format off the hot path). " +
			"Event-time plane files (watermark*.go, session*.go, disorder*.go; also in " +
			"internal/stream) further ban fmt calls and per-row tuple boxing (tuple.Get) " +
			"inside loops — watermark merges and session coalescing run per message. " +
			"Suppress deliberately-cold call sites with //lint:ignore hotpath-alloc <reason>.",
		DefaultDirs: []string{"internal/engine", "internal/des", "internal/simengine", "internal/stream"},
		Run:         runHotPathAlloc,
	}
}

func runHotPathAlloc(p *Pass) {
	strictOnly := strictOnlyPkgs[path.Base(p.Pkg.Dir)]
	for _, f := range p.Pkg.Files {
		base := filepath.Base(p.Pkg.Fset.Position(f.Pos()).Filename)
		isStrict := eventTimeFile(base)
		if strictOnly && !isStrict {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if isStrict {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					checkStrictLoop(p, n)
				}
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			pkgPath, name, ok := pkgFuncCall(p, call)
			if !ok {
				return true
			}
			hint, banned := hotAllocCalls[pkgPath][name]
			if !banned {
				return true
			}
			short := pkgPath[strings.LastIndex(pkgPath, "/")+1:]
			p.Reportf(call.Pos(), "%s.%s allocates on every call in data-plane code; %s", short, name, hint)
			return true
		})
	}
}

// checkStrictLoop applies the event-time-file bans to one loop body: no
// fmt at all (these loops run per message or per arrival, so even
// Fprintf to a discarded writer is per-element work), and no per-row
// tuple boxing.
func checkStrictLoop(p *Pass, loop ast.Node) {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	if body == nil {
		return
	}
	inspectShallow(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkgPath, name, ok := pkgFuncCall(p, call); ok {
			if pkgPath == "fmt" {
				p.Reportf(call.Pos(), "fmt.%s inside an event-time loop runs per element; format outside the loop or drop it", name)
				return true
			}
			if path.Base(pkgPath) == "tuple" && name == "Get" {
				p.Reportf(call.Pos(), "tuple.Get inside an event-time loop boxes a pooled row per iteration; reuse the arriving tuple, or //lint:ignore a deliberate allocation")
			}
		}
		return true
	})
}
