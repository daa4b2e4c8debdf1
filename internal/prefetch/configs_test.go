package prefetch

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEngineConfigFieldsVary holds the engines to the rule "with one value
// in use, ask for a constant": every exported field of an engine's Config or
// Options (internal/prefetch/*, internal/core), of meta.PartitionerConfig and
// of cache.Config must take at least two values in the module's non-test
// code. A setting with one value belongs in an unexported constant of its
// package.
//
// The count is syntactic, over every non-test file of the module. A field's
// values are the constants it is assigned in keyed literals and in
// assignments to variables declared with the type (or from a function
// returning it), plus the zero value when some literal omits the field.
// Each non-constant assignment counts as a value of its own, and an
// assignment guarded by a test of the same field (a zero-value fallback) is
// not a value. Run with -v to see every field's values.
func TestEngineConfigFieldsVary(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	c := newFieldCensus()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		f, err := parser.ParseFile(c.fset, filepath.ToSlash(rel), src, 0)
		if err != nil {
			return err
		}
		c.files = append(c.files, censusFile{dir: filepath.ToSlash(filepath.Dir(rel)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	single, total := c.run(t)
	t.Logf("%d of %d exported fields have one value outside tests", single, total)
	if single > 0 {
		t.Errorf("%d exported config field(s) take one value outside tests; make them constants", single)
	}
}

// isCensusType reports whether the named type in dir is audited.
func isCensusType(dir, name string) bool {
	switch {
	case dir == "internal/meta":
		return name == "PartitionerConfig"
	case dir == "internal/core":
		return name == "Options"
	case dir == "internal/cache":
		return name == "Config"
	case strings.HasPrefix(dir, "internal/prefetch/"):
		return name == "Config"
	}
	return false
}

type censusFile struct {
	dir string // module-relative package directory
	f   *ast.File
}

// typeKey names an audited type as "dir.Name".
type typeKey string

type fieldCensus struct {
	fset  *token.FileSet
	files []censusFile

	fields   map[typeKey][]string            // exported fields in order
	values   map[typeKey]map[string][]string // field -> value keys
	omitted  map[typeKey]map[string]bool     // some literal leaves it zero
	fallback map[typeKey]map[string]bool     // zero is replaced by a default
	returns  map[string]typeKey              // "dir.Func" -> its result type
}

func newFieldCensus() *fieldCensus {
	return &fieldCensus{
		fset:     token.NewFileSet(),
		fields:   map[typeKey][]string{},
		values:   map[typeKey]map[string][]string{},
		omitted:  map[typeKey]map[string]bool{},
		fallback: map[typeKey]map[string]bool{},
		returns:  map[string]typeKey{},
	}
}

// imports maps a file's import names to package directories.
func imports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		if !strings.HasPrefix(path, "streamline/") {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = strings.TrimPrefix(path, "streamline/")
	}
	return m
}

// resolve returns the audited type a type expression names, if any.
func resolve(cf censusFile, imp map[string]string, e ast.Expr) (typeKey, bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	dir, name := cf.dir, ""
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		if !ok || imp[id.Name] == "" {
			return "", false
		}
		dir, name = imp[id.Name], x.Sel.Name
	default:
		return "", false
	}
	if !isCensusType(dir, name) {
		return "", false
	}
	return typeKey(dir + "." + name), true
}

// callee returns "dir.Func" for a call of a package-level function.
func callee(cf censusFile, imp map[string]string, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return cf.dir + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && imp[id.Name] != "" {
			return imp[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

func (c *fieldCensus) run(t *testing.T) (single, total int) {
	// Pass 1: the audited types' fields, and the functions and variables
	// that yield one.
	for _, cf := range c.files {
		imp := imports(cf.f)
		for _, d := range cf.f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok || !isCensusType(cf.dir, s.Name.Name) {
							continue
						}
						k := typeKey(cf.dir + "." + s.Name.Name)
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								if n.IsExported() {
									c.fields[k] = append(c.fields[k], n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for i, n := range s.Names {
							if i < len(s.Values) {
								if lit, ok := s.Values[i].(*ast.CompositeLit); ok {
									if k, ok := resolve(cf, imp, lit.Type); ok {
										c.returns[cf.dir+"."+n.Name] = k
									}
								}
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil && d.Type.Results != nil && len(d.Type.Results.List) == 1 {
					if k, ok := resolve(cf, imp, d.Type.Results.List[0].Type); ok {
						c.returns[cf.dir+"."+d.Name.Name] = k
					}
				}
			}
		}
	}
	// Pass 2: every literal and assignment that gives a field a value,
	// one top-level declaration at a time.
	for _, cf := range c.files {
		imp := imports(cf.f)
		for _, d := range cf.f.Decls {
			c.census(cf, imp, d)
		}
	}

	keys := make([]string, 0, len(c.fields))
	for k := range c.fields {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, ks := range keys {
		k := typeKey(ks)
		for _, f := range c.fields[k] {
			vals := map[string]bool{}
			for _, v := range c.values[k][f] {
				vals[v] = true
			}
			if c.omitted[k][f] && !c.fallback[k][f] {
				vals["zero"] = true
			}
			list := make([]string, 0, len(vals))
			for v := range vals {
				list = append(list, v)
			}
			sort.Strings(list)
			total++
			mark := ""
			if len(list) < 2 {
				single++
				mark = "  <- one value"
			}
			t.Logf("%s.%s: %s%s", k, f, strings.Join(list, ", "), mark)
		}
	}
	return single, total
}

// census records the values one top-level declaration gives the audited
// fields.
func (c *fieldCensus) census(cf censusFile, imp map[string]string, d ast.Decl) {
	vars := map[string]typeKey{} // the declaration's variables of an audited type
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			for _, fl := range n.Params.List {
				if k, ok := resolve(cf, imp, fl.Type); ok {
					for _, nm := range fl.Names {
						vars[nm.Name] = k
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				src := n.Rhs[i]
				if call, ok := src.(*ast.CallExpr); ok {
					src = call.Fun
				}
				if k, ok := c.returns[callee(cf, imp, src)]; ok {
					vars[id.Name] = k
				}
			}
		case *ast.CompositeLit:
			k, ok := resolve(cf, imp, n.Type)
			if !ok {
				return true
			}
			set := map[string]bool{}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
						c.add(k, id.Name, kv.Value)
					}
				}
			}
			for _, f := range c.fields[k] {
				if !set[f] {
					c.mark(c.omitted, k, f)
				}
			}
		}
		return true
	})
	// Field assignments, with the fallbacks told apart by their guard.
	var walk func(n ast.Node, guards []ast.Expr)
	walk = func(n ast.Node, guards []ast.Expr) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.IfStmt:
				walk(m.Body, append(guards, m.Cond))
				if m.Else != nil {
					walk(m.Else, guards)
				}
				return false
			case *ast.AssignStmt:
				if m.Tok != token.ASSIGN || len(m.Lhs) != len(m.Rhs) {
					return true
				}
				for i, l := range m.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						continue
					}
					k, ok := vars[id.Name]
					if !ok {
						continue
					}
					if guardedBy(guards, id.Name, sel.Sel.Name) {
						c.mark(c.fallback, k, sel.Sel.Name)
						continue
					}
					c.add(k, sel.Sel.Name, m.Rhs[i])
				}
			}
			return true
		})
	}
	walk(d, nil)
}

// add records a value of field f of k: a constant by its value, anything
// else as a value of its own, named by its position.
func (c *fieldCensus) add(k typeKey, f string, e ast.Expr) {
	v := "@" + c.fset.Position(e.Pos()).String()
	if tv, err := types.Eval(c.fset, nil, token.NoPos, exprString(e)); err == nil && tv.Value != nil {
		v = tv.Value.ExactString()
	}
	if c.values[k] == nil {
		c.values[k] = map[string][]string{}
	}
	c.values[k][f] = append(c.values[k][f], v)
}

func (c *fieldCensus) mark(m map[typeKey]map[string]bool, k typeKey, f string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][f] = true
}

// guardedBy reports whether any guard tests field f of variable v.
func guardedBy(guards []ast.Expr, v, f string) bool {
	for _, g := range guards {
		found := false
		ast.Inspect(g, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == f {
				id, ok := s.X.(*ast.Ident)
				found = ok && id.Name == v
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// exprString renders the literal-only expressions types.Eval can fold;
// anything else renders unparseable, so it stays a non-constant.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Value
	case *ast.Ident:
		if x.Name == "true" || x.Name == "false" {
			return x.Name
		}
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	case *ast.BinaryExpr:
		return exprString(x.X) + " " + x.Op.String() + " " + exprString(x.Y)
	}
	return fmt.Sprintf("@%T", e)
}
