package detlint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// lintSrc parses one in-memory file and lints it.
func lintSrc(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	return LintFiles(fset, []*ast.File{f})
}

func TestWallClock(t *testing.T) {
	fs := lintSrc(t, `package p
import "time"
func f() int64 { return time.Now().UnixNano() }
func g(s time.Time) time.Duration { return time.Since(s) }
func h(s time.Time) time.Duration { return time.Until(s) }
func ok() time.Duration { return time.Second }
`)
	if len(fs) != 3 {
		t.Fatalf("findings = %v, want 3 wall-clock", fs)
	}
	for _, f := range fs {
		if f.Rule != RuleWallClock {
			t.Fatalf("rule = %s, want %s", f.Rule, RuleWallClock)
		}
	}
}

func TestMathRandImport(t *testing.T) {
	fs := lintSrc(t, `package p
import "math/rand"
func f() int { return rand.Int() }
`)
	if len(fs) != 1 || fs[0].Rule != RuleMathRand {
		t.Fatalf("findings = %v, want one math-rand", fs)
	}
}

func TestMapRange(t *testing.T) {
	fs := lintSrc(t, `package p
type bag struct{ m map[int]string }
func f(b bag) int {
	n := 0
	for range b.m {
		n++
	}
	return n
}
func ok(xs []int) int {
	n := 0
	for range xs {
		n++
	}
	return n
}
`)
	if len(fs) != 1 || fs[0].Rule != RuleMapRange {
		t.Fatalf("findings = %v, want one map-range", fs)
	}
}

func TestSelect(t *testing.T) {
	fs := lintSrc(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
func singleCaseOK(a chan int) int {
	select {
	case v := <-a:
		return v
	}
}
`)
	if len(fs) != 1 || fs[0].Rule != RuleSelect {
		t.Fatalf("findings = %v, want one select", fs)
	}
}

func TestSuppressionLine(t *testing.T) {
	fs := lintSrc(t, `package p
import "time"
func f() int64 {
	//lazydet:nondeterministic measurement only
	return time.Now().UnixNano()
}
`)
	if len(fs) != 0 {
		t.Fatalf("line directive did not suppress: %v", fs)
	}
}

func TestSuppressionFunc(t *testing.T) {
	fs := lintSrc(t, `package p
import "time"

//lazydet:nondeterministic this whole function measures wall time
func f() (int64, int64) {
	a := time.Now().UnixNano()
	b := time.Now().UnixNano()
	return a, b
}
func g() int64 { return time.Now().UnixNano() }
`)
	if len(fs) != 1 {
		t.Fatalf("function directive must suppress f's two calls but not g's: %v", fs)
	}
}

func TestSuppressionFile(t *testing.T) {
	fs := lintSrc(t, `//lazydet:nondeterministic benchmark helper file, timing is the point
package p
import "time"
func f() int64 { return time.Now().UnixNano() }
`)
	if len(fs) != 0 {
		t.Fatalf("file directive did not suppress: %v", fs)
	}
}

func TestSuppressionImport(t *testing.T) {
	fs := lintSrc(t, `package p
//lazydet:nondeterministic seeded explicitly by the caller
import "math/rand"
var _ = rand.Int
`)
	if len(fs) != 0 {
		t.Fatalf("import directive did not suppress: %v", fs)
	}
}

func TestLocalTimeVariableNotFlagged(t *testing.T) {
	fs := lintSrc(t, `package p
type clock struct{}
func (clock) Now() int64 { return 0 }
func f() int64 {
	var time clock
	return time.Now()
}
`)
	if len(fs) != 0 {
		t.Fatalf("shadowed identifier flagged: %v", fs)
	}
}

// TestEngineDeterministicPackagesAreClean lints the repository's own
// deterministic execution path; it is the determinism lint, and `go test
// ./...` fails on any finding. Any new nondeterministic construct must either
// go away or gain an annotated justification.
func TestEngineDeterministicPackagesAreClean(t *testing.T) {
	dirs := DefaultDirs("../..")
	fs, err := LintDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
	t.Logf("%d directory(ies) linted, %d finding(s)", len(dirs), len(fs))
}
