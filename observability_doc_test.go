package methodpart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"methodpart/internal/obsv"
)

// TestMetricsMatchObservabilityDoc is the docs-drift guard of the metric
// tables: every "methodpart_*" family named by a string literal in
// non-test source has a row in OBSERVABILITY.md's "## Metrics" section,
// and every documented family is still named in source.
func TestMetricsMatchObservabilityDoc(t *testing.T) {
	documented := docTableNames(t, "OBSERVABILITY.md", "## Metrics", "^\\| `(methodpart_[a-z0-9_]+)(\\{[^}]*\\})?` \\|")
	inSource := metricLiterals(t)
	for name := range inSource {
		if !documented[name] {
			t.Errorf("metric %s is emitted by %s but has no row in OBSERVABILITY.md's metric tables", name, inSource[name])
		}
	}
	for name := range documented {
		if _, ok := inSource[name]; !ok {
			t.Errorf("OBSERVABILITY.md documents metric %s but no source emits it", name)
		}
	}
}

// TestTraceEventsMatchObservabilityDoc checks OBSERVABILITY.md's trace
// event table against the obsv.EventKind names, in both directions.
func TestTraceEventsMatchObservabilityDoc(t *testing.T) {
	documented := docTableNames(t, "OBSERVABILITY.md", "## Trace events", "^\\| `([a-z-]+)` \\|")
	kinds := map[string]bool{}
	for k := obsv.EventKind(1); ; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			break
		}
		kinds[name] = true
		if !documented[name] {
			t.Errorf("trace event %q has no row in OBSERVABILITY.md's trace-event table", name)
		}
	}
	for name := range documented {
		if !kinds[name] {
			t.Errorf("OBSERVABILITY.md documents trace event %q but obsv has no such kind", name)
		}
	}
}

// docTableNames returns the first capture of every line matching row in
// the section of path that starts at heading and ends at the next heading
// of the same level.
func docTableNames(t *testing.T, path, heading, row string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	level := heading[:strings.IndexByte(heading, ' ')+1]
	rowRE := regexp.MustCompile(row)
	names := map[string]bool{}
	in := false
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "#") {
			if in && strings.HasPrefix(l, level) {
				break
			}
			in = in || strings.TrimSpace(l) == heading
			continue
		}
		if m := rowRE.FindStringSubmatch(l); in && m != nil {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: no table rows under %q", path, heading)
	}
	return names
}

// metricLiterals maps every "methodpart_*" string literal in the
// repository's non-test Go files to the file that names it.
func metricLiterals(t *testing.T) map[string]string {
	t.Helper()
	family := regexp.MustCompile(`^methodpart_[a-z0-9_]+$`)
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && family.MatchString(s) {
				out[s] = path
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no methodpart_* metric literals found in source")
	}
	return out
}
