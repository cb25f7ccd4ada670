package ndlog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ndlog"
)

// seedPrograms returns the NDlog programs written into Q1-Q5 and the
// examples — every raw string literal there that holds a rule — with the
// %THRESH% placeholder filled in.
func seedPrograms(t testing.TB) []string {
	var files []string
	for _, glob := range []string{"../../scenario/*.go", "../../examples/*/main.go"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	var out []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") || !strings.Contains(lit.Value, ":-") {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, strings.ReplaceAll(src, "%THRESH%", "40"))
			return true
		})
	}
	if len(out) < 7 {
		t.Fatalf("found %d seed programs in %d files, want Q1-Q5 and the examples'", len(out), len(files))
	}
	return out
}

// Parse is the door untrusted programs come through (a library user hands
// over source): it must never panic, and a program it accepts must render
// (Program.String) to source that parses back to the same program, and so
// to the same rendering — the round trip the benchmark's parse probe and
// every candidate's description rely on.
func FuzzParse(f *testing.F) {
	for _, src := range seedPrograms(f) {
		f.Add(src)
	}
	// What the first fuzzing run found: groupings the flat rendering lost,
	// escapes the lexer did not read back, a variable read as an aggregate.
	for _, src := range []string{
		`r o(@X, Y) :- e(@X, Z), Y := (Z + 1) * 2, (Z < 3) == true.`,
		`r o(@X) :- e(@X, Z), Z != "a\b".`,
		`r o(@X, a_count<Z>) :- e(@X, Z), (a_z) < Z.`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ndlog.Parse("fuzz", src)
		if err != nil {
			return
		}
		once := p.String()
		q, err := ndlog.Parse("fuzz", once)
		if err != nil {
			t.Fatalf("rendering does not parse: %v\nsource:\n%s\nrendering:\n%s", err, src, once)
		}
		if twice := q.String(); twice != once || !reflect.DeepEqual(p, q) {
			t.Fatalf("the rendering parses to another program\nsource:\n%s\nfirst:\n%s\nsecond:\n%s", src, once, twice)
		}
	})
}
