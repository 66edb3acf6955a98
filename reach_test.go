package fexiot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow names the exported internal identifiers that no non-test file
// reaches but that stay, each with the reason. A key is "pkg.Name" or
// "pkg.Type.Method", pkg being the directory under internal/; "chaos.*"
// allows the whole fault-injection package, which exists only for tests.
var reachAllow = map[string]string{
	// Test seams: how tests inject faults or switch a mechanism off.
	"chaos.*":                     "fault-injection primitives (conns, filesystems, plans) that only tests drive",
	"fedproto.SetCheckpointFS":    "swaps the checkpoint filesystem for chaos.FaultFS in disk-fault tests",
	"mat.SetArenaEnabled":         "turns buffer pooling off so tests compare pooled with unpooled results",
	"mat.ArenaPoisonEnabled":      "lets the debugarena tests assert they run in the NaN-poison build",
	"serve.Engine.WorkerRestarts": "observes supervisor restarts in the worker-panic recovery tests",
	"autodiff.Tape.ArenaStats":    "observes arena hits and pooled bytes in the tape and workspace reuse tests",

	// Test oracles, fixtures and generators.
	"graph.Graph.HasCycle":          "oracle of the vuln action-loop tests",
	"mat.Mul":                       "allocating product the kernel tests compare MulTo and SpMMTo against",
	"mat.Dense.Equalish":            "tolerance comparison of the kernel and gradient tests",
	"mat.CSR.ToDense":               "expands a sparse operator for the dense reference in tests",
	"mat.CSR.NNZ":                   "checks operator rebuilds in the graph cache tests",
	"rng.RNG.Gaussian":              "draws random test matrices",
	"experiments.PoisonResult.Cell": "reads one attack × aggregator F1 in the poison acceptance test",
	"embed.Encoder.RuleEmbedding":   "the reference fusions build node features through it (production calls RuleEmbeddingInto)",
	"fusion.SentenceFeatureDim":     "feature width the fusion and gnn tests size sentence-space nodes with",

	// Methods the standard library calls through an interface.
	"fedproto.Floats.GobEncode": "encoding/gob calls it for every dense tensor of a checkpoint",
	"fedproto.Floats.GobDecode": "encoding/gob calls it for every dense tensor of a checkpoint",
	"obs.checkError.Unwrap":     "errors.Is and errors.As call it on failed health checks",

	// Enum members: named so the set is complete and String covers it.
	"rules.NumPlatforms":    "bound of the platform enum",
	"text.Other":            "part-of-speech enum member",
	"vuln.DriftTimedRevert": "drifting-pattern member of the vulnerability type enum",
	"vuln.DriftFakeCond":    "drifting-pattern member of the vulnerability type enum",
	"vuln.DriftManualBlock": "drifting-pattern member of the vulnerability type enum",
	"vuln.ExternalAttack":   "online-attack member of the vulnerability type enum",

	// Paper components nothing wires yet; wiring or deleting them is a
	// fidelity decision, not dead-code removal.
	"embed.Encoder.KeyPhraseEmbedding":  "the paper's key-phrase encoding of verbose app descriptions (§III-A1)",
	"fusion.TrainCorrelationClassifier": "the deployed action-trigger correlation oracle of §III-A3",
	"fusion.EdgeAgreement":              "precision and recall of that oracle against the ground-truth edges (§III-A3)",
}

// decl is one name a top-level declaration of a non-test file introduces.
type decl struct {
	dir, recv, name string // dir from the module root; recv: a method's type
	refs            []ref  // what the whole declaration mentions
}

// ref is a package-level name of the package in dir or, with dir empty, a
// method or field name of any type.
type ref struct{ dir, name string }

// qual is the name as reachAllow spells it.
func (d *decl) qual() string {
	q := strings.TrimPrefix(d.dir, "internal/") + "."
	if d.recv != "" {
		q += d.recv + "."
	}
	return q + d.name
}

// TestEveryInternalExportReached fails on each exported package-level name
// or method under internal/ that no binary, example, facade function or
// bench/ workload reaches through non-test code, unless reachAllow names it
// with the reason it stays: API only tests use is deleted with its tests.
//
// Reachability is by name. The roots are every declaration outside
// internal/ and the init functions; a declaration is reached once a reached
// one mentions it — a package-level name as pkg.Name from another package
// or bare within its own, a method by its bare name on any receiver once
// its type is reached. A method name mentioned anywhere reaches every
// method of that name, so the check can miss dead code but never flags a
// name a reached declaration uses. What the standard library calls through
// an interface (gob, errors) is invisible to it and is allowed explicitly.
func TestEveryInternalExportReached(t *testing.T) {
	var decls []*decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && p != "." && strings.HasPrefix(e.Name(), "."):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls = append(decls, declsOf(f, filepath.ToSlash(filepath.Dir(p)))...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	internal := func(d *decl) bool { return strings.HasPrefix(d.dir, "internal/") }

	names, methods := map[ref]bool{}, map[string]bool{}
	live := map[*decl]bool{}
	mark := func(d *decl) {
		live[d] = true
		for _, r := range d.refs {
			if r.dir == "" {
				methods[r.name] = true
			} else {
				names[r] = true
			}
		}
	}
	spread := func() {
		for grew := true; grew; {
			grew = false
			for _, d := range decls {
				hit := names[ref{d.dir, d.name}]
				if d.recv != "" {
					hit = methods[d.name] && names[ref{d.dir, d.recv}]
				}
				if hit && !live[d] {
					mark(d)
					grew = true
				}
			}
		}
	}
	for _, d := range decls {
		if !internal(d) || d.name == "init" || d.name == "_" {
			mark(d)
		}
	}
	spread()
	// What the product reaches is settled; what an allowed name uses stays
	// with it without an entry of its own.
	reached := maps.Clone(live)
	for _, d := range decls {
		if reachAllow[d.qual()] != "" || internal(d) && reachAllow[strings.TrimPrefix(d.dir, "internal/")+".*"] != "" {
			mark(d)
		}
	}
	spread()

	checked := map[string]bool{}
	var dead []string
	for _, d := range decls {
		q := d.qual()
		if checked[q] || !internal(d) || !ast.IsExported(d.name) {
			continue // a name declared once per build tag is checked once
		}
		checked[q] = true
		switch {
		case reached[d] && reachAllow[q] != "":
			t.Errorf("%s is reached now: drop it from reachAllow", q)
		case !live[d]:
			dead = append(dead, q)
		}
	}
	for q := range reachAllow {
		if !checked[q] && !strings.HasSuffix(q, ".*") {
			t.Errorf("reachAllow names %s, which internal/ no longer declares", q)
		}
	}
	sort.Strings(dead)
	for _, q := range dead {
		t.Errorf("%s: exported under internal/, reached only by tests", q)
	}
}

// declsOf lists the names f's top-level declarations introduce, each with
// what its declaration mentions.
func declsOf(f *ast.File, dir string) []*decl {
	imports := map[string]string{} // import name → directory of a module package
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		if idir, ok := strings.CutPrefix(p, "fexiot/"); ok {
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = idir
		}
	}
	var out []*decl
	for _, d := range f.Decls {
		var ids []*ast.Ident
		recv := ""
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = []*ast.Ident{d.Name}
			if d.Recv != nil {
				x := d.Recv.List[0].Type
				if star, ok := x.(*ast.StarExpr); ok {
					x = star.X
				}
				if id, ok := x.(*ast.Ident); ok {
					recv = id.Name
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
		refs := refsOf(d, dir, imports, ids)
		for _, id := range ids {
			out = append(out, &decl{dir, recv, id.Name, refs})
		}
	}
	return out
}

// refsOf lists what declaration d mentions besides its own names: a bare
// identifier as a name of its own package, pkg.Name as a name of the
// imported package, and every selected or interface-declared name as a
// method. A method's receiver and the names of fields and parameters are
// not mentions.
func refsOf(d ast.Decl, dir string, imports map[string]string, own []*ast.Ident) []ref {
	var refs []ref
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					refs = append(refs, ref{"", id.Name})
				}
			}
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.SelectorExpr:
			refs = append(refs, ref{"", n.Sel.Name})
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				refs = append(refs, ref{imports[x.Name], n.Sel.Name})
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !slices.Contains(own, n) {
				refs = append(refs, ref{dir, n.Name})
			}
		}
		return true
	}
	ast.Inspect(d, visit)
	return refs
}
