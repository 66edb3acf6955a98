package fexiot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// settingStructs are the facade structs whose exported fields README's
// "Configuration" table documents one by one.
var settingStructs = map[string]bool{"Options": true, "ServeOptions": true, "StreamOptions": true}

var (
	codeSpan   = regexp.MustCompile("`([^`]*)`")
	flagName   = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	optionName = regexp.MustCompile(`(?:^|[^\w.])((?:Serve|Stream)?Options\.[A-Z]\w*)`)
)

// TestConfigurationTableMatchesSettings fails when an exported field of
// fexiot.Options, ServeOptions or StreamOptions, or a flag of cmd/fexserve,
// has no row in README's "Configuration" table, and when the table names an
// Options.X, ServeOptions.X, StreamOptions.X or -flag that no longer exists:
// a new knob cannot arrive undocumented, nor a retired one leave a stale row.
func TestConfigurationTableMatchesSettings(t *testing.T) {
	have := map[string]bool{} // "Options.Seed", "-seed"
	for _, f := range parseDir(t, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !settingStructs[ts.Name.Name] {
				return true
			}
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				if id, ok := field.Type.(*ast.Ident); ok && settingStructs[id.Name] {
					continue // a nested group: its own fields have the rows
				}
				for _, id := range field.Names {
					if id.IsExported() {
						have[ts.Name.Name+"."+id.Name] = true
					}
				}
			}
			return false
		})
	}
	for _, f := range parseDir(t, filepath.Join("cmd", "fexserve")) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			at := 0 // flag.Int("name", …); flag.IntVar(&v, "name", …)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				at = 1
			}
			if len(call.Args) > at {
				if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					have["-"+name] = true
				}
			}
			return true
		})
	}
	if len(have) == 0 {
		t.Fatal("found no option fields and no fexserve flags")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Configuration\n")
	if !ok {
		t.Fatal(`README.md has no "## Configuration" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			if flagName.MatchString(span[1]) {
				documented[span[1]] = true
			}
			for _, m := range optionName.FindAllStringSubmatch(span[1], -1) {
				documented[m[1]] = true
			}
		}
	}

	var missing, stale []string
	for name := range have {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !have[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("%s has no row in README's Configuration table", name)
	}
	for _, name := range stale {
		t.Errorf("README's Configuration table names %s, which no longer exists", name)
	}
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}
