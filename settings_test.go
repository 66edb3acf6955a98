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
	for _, name := range flagsOf(t, filepath.Join("cmd", "fexserve")) {
		have[name] = true
	}
	if len(have) == 0 {
		t.Fatal("found no option fields and no fexserve flags")
	}

	documented := map[string]bool{}
	for _, row := range tableRows(t, "Configuration") {
		for _, span := range codeSpan.FindAllStringSubmatch(row, -1) {
			if flagName.MatchString(span[1]) {
				documented[span[1]] = true
			}
			for _, m := range optionName.FindAllStringSubmatch(span[1], -1) {
				documented[m[1]] = true
			}
		}
	}
	compareSettings(t, "Configuration", have, documented)
}

// TestFederationFlagsTableMatchesBinaries holds README's "Federation flags"
// table to the flag.* calls of cmd/fexserver and cmd/fexclient: each row
// names its binaries in the first column and its flags in the second, and
// every flag must have a row, every row a flag.
func TestFederationFlagsTableMatchesBinaries(t *testing.T) {
	binaries := []string{"fexserver", "fexclient"}
	have := map[string]bool{} // "fexclient -op-timeout"
	for _, bin := range binaries {
		for _, name := range flagsOf(t, filepath.Join("cmd", bin)) {
			have[bin+" "+name] = true
		}
	}
	documented := map[string]bool{}
	for _, row := range tableRows(t, "Federation flags") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			continue
		}
		for _, bin := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
			for _, span := range codeSpan.FindAllStringSubmatch(cells[2], -1) {
				if flagName.MatchString(span[1]) {
					documented[bin[1]+" "+span[1]] = true
				}
			}
		}
	}
	compareSettings(t, "Federation flags", have, documented)
}

// flagsOf returns the names, dash included, that the flag.* calls in one
// command's non-test files declare.
func flagsOf(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, f := range parseDir(t, dir) {
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
					names = append(names, "-"+name)
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("found no flags in %s", dir)
	}
	return names
}

// tableRows returns the table lines of one "## " section of README.md.
func tableRows(t *testing.T, heading string) []string {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf("README.md has no %q section", "## "+heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// compareSettings reports each setting the code has and the table lacks,
// and each the table names and the code no longer has.
func compareSettings(t *testing.T, table string, have, documented map[string]bool) {
	t.Helper()
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
		t.Errorf("%s has no row in README's %s table", name, table)
	}
	for _, name := range stale {
		t.Errorf("README's %s table names %s, which no longer exists", table, name)
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
