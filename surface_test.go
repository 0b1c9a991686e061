package vibepm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed lists the exported names declared under internal/
// that no non-test file uses, each with the reason it stays. Keys are
// the package's path below internal/, then the name, or Type.Method
// for a method.
var surfaceAllowed = map[string]string{
	// References the equivalence tests name.
	"transform.VelocityPSD": "reference for the in-place velocity integral",

	// Allocating forms of Into kernels.
	"physics.Pump.Acceleration": "allocating AccelerationInto; BenchmarkAcceleration is a gated BENCH.txt row",
	"store.ReplayWAL":           "ReplayWALWorkers at GOMAXPROCS, how the mirror and cluster tests read a WAL",

	// Entry points of test harnesses.
	"cluster.RunClusterCrashTrial": "the cluster crash sweep's harness",
	"physics.NewFaultyPump":        "the fault-injection pump of the golden and kernel tests",
	"gateway.Server.AdvanceMote":   "one mote's wakeup, for the gateway's race and hardening tests",
	"restapi.WithMetrics":          "a private registry, so metric tests do not share obs.Default",

	// Interface methods.
	"physics.FaultClass.MarshalText": "encoding.TextMarshaler: fault classes encode as names",

	// Named zero values.
	"physics.ZoneUnknown":     "the zero Zone, so ZoneA to ZoneD keep the values 1 to 4",
	"physics.MisalignAngular": "the zero MisalignKind",

	// Everything else, kept for a stated reason.
	"dataset.ImportCSV":           "real-data import path (ROADMAP item 7), exercised by its tests",
	"mems.MeasurementBytes":       "the paper's 6 KiB measurement, the wire size the mems and flush tests assert",
	"physics.FaultClasses":        "canonical class order the fault confusion tests iterate",
	"physics.ZoneForVelocity":     "ISO 10816 zones the VelocityPSD and pump tests check against",
	"sched.MeasurementsPerDay":    "the paper's information-collected objective (§II) the scheduler tests assert",
	"store.PeriodManager.Refresh": "rolling analysis period the store tests step",
}

// TestExportedSurfaceIsUsed: every exported top-level func, type, var
// and const, and every exported method of an exported type, declared
// in a non-test file under internal/ has at
// least one use in a non-test file of the module (benchmark/, cmd/ and
// examples/ count), or an entry in surfaceAllowed saying why it stays.
// A package-level name is used by a bare identifier in its own package
// or a pkg.Name selector through an import of it; a method is used by
// any selector of its name (no type checking, so a name shared with a
// used method counts as used). An allowlist entry whose name is now
// used, or no longer declared, fails too.
func TestExportedSurfaceIsUsed(t *testing.T) {
	const module = "vibepm"
	type decl struct {
		key string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: exported names of non-test files under internal/.
	for _, fl := range files {
		rel, ok := strings.CutPrefix(fl.dir, "internal/")
		if !ok {
			continue
		}
		add := func(id *ast.Ident, name string) {
			if id.IsExported() {
				declIdents[id] = true
				decls = append(decls, decl{rel + "." + name, fset.Position(id.Pos())})
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name)
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					add(d.Name, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, n.Name)
						}
					}
				}
			}
		}
	}

	// Uses: bare identifiers by directory, pkg.Name selectors by import
	// path, and every selector's name for methods.
	bare := map[string]bool{}      // dir + "." + name
	qualified := map[string]bool{} // import path + "." + name
	selected := map[string]bool{}  // name
	for _, fl := range files {
		imports := map[string]string{}
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						qualified[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdents[n] {
					bare[fl.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		rel, name, _ := strings.Cut(d.key, ".")
		var used bool
		if _, method, ok := strings.Cut(name, "."); ok {
			used = selected[method]
		} else {
			used = bare["internal/"+rel+"."+name] || qualified[module+"/internal/"+rel+"."+name]
		}
		if used {
			if _, ok := surfaceAllowed[d.key]; ok {
				t.Errorf("%s: %s is used; remove its surfaceAllowed entry", d.pos, d.key)
			}
			continue
		}
		if _, ok := surfaceAllowed[d.key]; !ok {
			t.Errorf("%s: exported %s has no use outside tests: delete it, unexport it, or allow it with a reason", d.pos, d.key)
		}
	}
	for key := range surfaceAllowed {
		if !declared[key] {
			t.Errorf("surfaceAllowed names %s, which is not declared", key)
		}
	}
}

// receiverType is the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
