// Package policy holds the module's structural rules as tier-1 tests:
// reachability (TestReachability) decides which internal functions ship, and
// the "one X" / "no X" rules (TestPolicies) keep retired forms retired. It has
// no non-test code. Both tests read one parse of the module, made once with
// go/build, go/parser and go/types; the standard library is type-checked from
// source through go/importer, so the check needs nothing outside the
// toolchain.
package policy

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "repro"

// srcFile is one file of the tree: a Go file (parsed, ast != nil) or one of
// the few non-Go files a policy reads. rel is slash-separated from the
// module root.
type srcFile struct {
	rel  string
	src  []byte
	ast  *ast.File
	test bool // a _test.go file
}

// pkg is one package of the module as the host builds it.
type pkg struct {
	path     string
	dir      string // slash-separated, relative to the module root
	files    []*srcFile
	excluded []*srcFile // non-test files the host's build tags exclude
	types    *types.Package
	info     *types.Info
}

type module struct {
	root  string
	fset  *token.FileSet
	files []*srcFile // every Go file, tests and excluded files included
	pkgs  map[string]*pkg
	order []*pkg // dependency order
	std   types.Importer
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// loadModule parses every Go file of the module and type-checks the non-test
// files the host builds, once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = load() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func load() (*module, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	// The standard library is type-checked from source; its cgo files would
	// need the cgo tool, and its pure-Go fallbacks declare the same API.
	build.Default.CgoEnabled = false
	m := &module{root: root, fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	m.std = importer.ForCompiler(m.fset, "source", nil)

	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel := filepath.ToSlash(mustRel(root, p))
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || rel == "bench/out") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		ip := modulePath
		if rel != "." {
			ip = path.Join(modulePath, rel)
		}
		pk := &pkg{path: ip, dir: rel}
		add := func(names []string, test, excluded bool) error {
			for _, n := range names {
				f, err := m.parse(rel, n, test)
				if err != nil {
					return err
				}
				switch {
				case excluded:
					pk.excluded = append(pk.excluded, f)
				case !test:
					pk.files = append(pk.files, f)
				}
			}
			return nil
		}
		var ignored []string
		for _, n := range bp.IgnoredGoFiles {
			if !strings.HasSuffix(n, "_test.go") {
				ignored = append(ignored, n)
			}
		}
		for _, e := range []error{
			add(bp.GoFiles, false, false),
			add(bp.TestGoFiles, true, false),
			add(bp.XTestGoFiles, true, false),
			add(ignored, false, true),
		} {
			if e != nil {
				return e
			}
		}
		if len(pk.files) > 0 {
			m.pkgs[ip] = pk
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.check(p, nil); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *module) parse(dir, name string, test bool) (*srcFile, error) {
	rel := path.Join(dir, name)
	src, err := os.ReadFile(filepath.Join(m.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(m.fset, rel, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	sf := &srcFile{rel: rel, src: src, ast: f, test: test}
	m.files = append(m.files, sf)
	return sf, nil
}

// check type-checks one module package after the module packages it
// imports; stack catches an import cycle.
func (m *module) check(ip string, stack []string) (*types.Package, error) {
	pk := m.pkgs[ip]
	if pk.types != nil {
		return pk.types, nil
	}
	for _, s := range stack {
		if s == ip {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
	}
	stack = append(stack, ip)
	var files []*ast.File
	for _, f := range pk.files {
		files = append(files, f.ast)
	}
	pk.info = &types.Info{
		Uses: map[*ast.Ident]types.Object{},
		Defs: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if p == modulePath || strings.HasPrefix(p, modulePath+"/") {
			if _, ok := m.pkgs[p]; !ok {
				return nil, fmt.Errorf("%s imports %s, which is not in the module", ip, p)
			}
			return m.check(p, stack)
		}
		return m.std.Import(p)
	})}
	tp, err := conf.Check(ip, m.fset, files, pk.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", ip, err)
	}
	pk.types = tp
	m.order = append(m.order, pk)
	return tp, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the test's directory")
		}
		dir = parent
	}
}

func mustRel(root, p string) string {
	rel, err := filepath.Rel(root, p)
	if err != nil {
		panic(err)
	}
	return rel
}

// reachAllow lists the internal functions no binary reaches that stay
// anyway: each is a reference that tests in more than one package compare
// against, or (SetMaxRequestBytes) the one test seam they share. An entry
// that becomes reachable, or whose function is gone, fails the test, so the
// list cannot rot.
var reachAllow = map[string]string{
	"freqoracle.OLH.AbsorbScan":           "the hash-every-type absorb that freqoracle's equivalence test and the root OLH absorb benchmark hold Absorb to",
	"hadamard.Matrix":                     "the explicit Sylvester matrix that hadamard's FWHT tests and workload's Parity row literals compare against",
	"linalg.ApproxEqual":                  "the entry-wise tolerance comparison the linalg, strategy, core, opt, baselines and workload tests assert with",
	"obs.Lint":                            "the exposition-format checker that obs's tests and the root /metrics end-to-end test run every scrape through",
	"strategy.Strategy.OptimalV":          "V = W·B as an explicit matrix (Theorem 3.10), the reference the root estimator tests and strategy's optimality tests compare against",
	"strategy.VariancesExplicit":          "Theorem 3.4's summation formula, the reference the root estimator tests and strategy's variance tests hold Variances to",
	"transport.Server.SetMaxRequestBytes": "shrinks the 64 MiB body bound so the root router test and transport's ready test reach the 413 path without a 64 MiB request",
	"workload.Materialize":                "W collected from QueryRow, the explicit matrix the estimator, strategy, opt and workload tests compare streamed forms against",
}

// TestReachability fails when a function in internal/ cannot be reached from
// the roots: the root package's exported API, main and init of every
// command, example and bench/, and package-level variable initializers. A
// method counts as reached when reached code names it, or when its receiver
// type is reached and its name is a method of some interface in the module
// or the standard library (fmt.Stringer, json.Marshaler, http.Handler, ...),
// which keeps interface- and reflection-dispatched methods live. Names used
// in files the host's build constraints exclude count as reached too.
func TestReachability(t *testing.T) {
	m := loadModule(t)
	unreached := m.unreachable()
	var stray []string
	for _, fn := range unreached {
		if _, ok := reachAllow[fn.name]; ok {
			continue
		}
		stray = append(stray, fmt.Sprintf("%s: %s (%d lines)", fn.pos, fn.name, fn.lines))
	}
	seen := map[string]bool{}
	for _, fn := range unreached {
		seen[fn.name] = true
	}
	for name := range reachAllow {
		if !seen[name] {
			stray = append(stray, fmt.Sprintf("allowlisted %s is reachable or gone: drop its entry", name))
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		t.Errorf("internal functions no binary reaches: delete each, move it into the _test.go file that uses it, or allowlist it with a reason:\n\t%s",
			strings.Join(stray, "\n\t"))
	}
}

type unreachedFunc struct {
	name  string // package name, receiver type if any, function name
	pos   token.Position
	lines int // doc comment included
}

// unreachable returns the functions declared in internal/ that the roots do
// not reach.
func (m *module) unreachable() []unreachedFunc {
	r := &reacher{
		m:       m,
		decls:   map[types.Object]declSite{},
		methods: map[*types.TypeName][]*types.Func{},
		byName:  map[*types.Package]map[string][]types.Object{},
		reached: map[types.Object]bool{},
		iface:   interfaceMethodNames(m),
	}
	for _, pk := range m.order {
		r.index(pk)
	}
	r.roots()
	for len(r.work) > 0 {
		obj := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		d := r.decls[obj]
		r.visit(d.pkg, d.node)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, fn := range r.methods[tn] {
				if r.iface[fn.Name()] {
					r.mark(fn)
				}
			}
		}
	}
	var out []unreachedFunc
	for obj, d := range r.decls {
		fn, ok := obj.(*types.Func)
		if !ok || r.reached[obj] || !strings.HasPrefix(d.pkg.dir, "internal/") {
			continue
		}
		fd := d.node.(*ast.FuncDecl)
		start := fd.Pos()
		if fd.Doc != nil {
			start = fd.Doc.Pos()
		}
		name := fn.Pkg().Name() + "."
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name += recvName(recv.Type()).Name() + "."
		}
		out = append(out, unreachedFunc{
			name:  name + fn.Name(),
			pos:   m.fset.Position(fd.Pos()),
			lines: m.fset.Position(fd.End()).Line - m.fset.Position(start).Line + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type declSite struct {
	pkg  *pkg
	node ast.Node // *ast.FuncDecl or *ast.TypeSpec
}

type reacher struct {
	m       *module
	decls   map[types.Object]declSite
	methods map[*types.TypeName][]*types.Func
	byName  map[*types.Package]map[string][]types.Object
	reached map[types.Object]bool
	iface   map[string]bool
	work    []types.Object
}

func (r *reacher) index(pk *pkg) {
	names := map[string][]types.Object{}
	r.byName[pk.types] = names
	for _, f := range pk.files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, ok := pk.info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				r.decls[fn] = declSite{pk, d}
				names[fn.Name()] = append(names[fn.Name()], fn)
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					tn := recvName(recv.Type())
					r.methods[tn] = append(r.methods[tn], fn)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						if tn, ok := pk.info.Defs[ts.Name].(*types.TypeName); ok {
							r.decls[tn] = declSite{pk, ts}
							names[tn.Name()] = append(names[tn.Name()], tn)
						}
					}
				}
			}
		}
	}
}

// roots marks the root package's exported API, every main and init, every
// package-level variable initializer, and every name the files excluded by
// the host's build constraints use.
func (r *reacher) roots() {
	for _, pk := range r.m.order {
		for _, f := range pk.files {
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := pk.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					isMain := d.Recv == nil && d.Name.Name == "main" && pk.types.Name() == "main"
					isInit := d.Recv == nil && d.Name.Name == "init"
					if isMain || isInit || (pk.path == modulePath && fn.Exported() && (d.Recv == nil || recvName(fn.Type().(*types.Signature).Recv().Type()).Exported())) {
						r.mark(fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							r.visit(pk, s)
						case *ast.TypeSpec:
							if pk.path == modulePath && s.Name.IsExported() {
								r.mark(pk.info.Defs[s.Name])
							}
						}
					}
				}
			}
		}
		for _, f := range pk.excluded {
			imports := fileImports(f.ast)
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							if dep := r.m.pkgs[ip]; dep != nil {
								r.markAll(r.byName[dep.types][n.Sel.Name])
							}
							return false
						}
					}
				case *ast.Ident:
					r.markAll(r.byName[pk.types][n.Name])
				}
				return true
			})
		}
	}
}

func (r *reacher) markAll(objs []types.Object) {
	for _, o := range objs {
		r.mark(o)
	}
}

func (r *reacher) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.TypeName:
	default:
		return
	}
	if r.reached[obj] {
		return
	}
	if _, ok := r.decls[obj]; !ok {
		return // declared outside the module, or an interface method
	}
	r.reached[obj] = true
	r.work = append(r.work, obj)
}

// visit marks every function and type the subtree names.
func (r *reacher) visit(pk *pkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			r.mark(pk.info.Uses[id])
		}
		return true
	})
}

// interfaceMethodNames collects the method names of every interface declared
// in the module, at package level or inline, and of every package-level
// interface in the standard library packages the module imports, the
// universe's error included.
func interfaceMethodNames(m *module) map[string]bool {
	names := map[string]bool{}
	addScope := func(s *types.Scope) {
		for _, n := range s.Names() {
			if tn, ok := s.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						names[it.Method(i).Name()] = true
					}
				}
			}
		}
	}
	addScope(types.Universe)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		addScope(p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, pk := range m.order {
		walk(pk.types)
		for _, f := range pk.files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, fld := range it.Methods.List {
						for _, id := range fld.Names {
							names[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
}

func recvName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Origin().Obj()
	case *types.Alias:
		return recvName(types.Unalias(t))
	}
	panic(fmt.Sprintf("receiver of type %v", t))
}

// fileImports maps each import's local name to its path.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, is := range f.Imports {
		p := strings.Trim(is.Path.Value, `"`)
		name := path.Base(p)
		if is.Name != nil {
			name = is.Name.Name
		}
		out[name] = p
	}
	return out
}

// tree is what a policy reads: every Go file of the module (tests and files
// the host's build tags exclude included) and the two kinds of non-Go file a
// policy names, the linalg assembly and BENCH_*.json result files.
type tree struct {
	fset  *token.FileSet
	goSrc []*srcFile
	other []*srcFile
	m     *module // the loaded module, for rules that need types
}

// policy is one "one X" / "no X" rule. check returns one line per offending
// site, each ending in the rule's message. fixtures are the retired forms:
// each added to the module alone must make check fire.
type policy struct {
	name     string
	check    func(*tree) []string
	fixtures []fixture
}

type fixture struct {
	rel, src string
}

// TestPolicies holds the module to its "one X" / "no X" rules. Go rules
// match syntax (calls, selectors, declarations, imports), never comments or
// prose, so a mention of a retired form in a doc or in Markdown cannot trip
// one. Each rule's retired forms are fixtures that must make it fire, and the
// same text turned into comments must not.
func TestPolicies(t *testing.T) {
	m := loadModule(t)
	base, err := m.policyTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		t.Run(strings.ReplaceAll(p.name, " ", "_"), func(t *testing.T) {
			if got := p.check(base); len(got) > 0 {
				t.Fatalf("%s:\n\t%s", p.name, strings.Join(got, "\n\t"))
			}
			if len(p.fixtures) == 0 {
				t.Fatal("the rule has no fixture of the form it retires")
			}
			for _, fx := range p.fixtures {
				withForm, err := base.with(fx.rel, fx.src)
				if err != nil {
					t.Fatalf("fixture %s: %v", fx.rel, err)
				}
				if len(p.check(withForm)) == 0 {
					t.Errorf("the rule does not fire on its retired form %s:\n%s", fx.rel, fx.src)
				}
				if strings.HasSuffix(fx.rel, ".json") {
					continue // a result file is its name, not a text to mention
				}
				mention, err := base.with(fx.rel, commentedOut(fx.src))
				if err != nil {
					t.Fatalf("fixture %s as a comment: %v", fx.rel, err)
				}
				if got := p.check(mention); len(got) > 0 {
					t.Errorf("the rule fires on a comment that mentions its retired form:\n\t%s", strings.Join(got, "\n\t"))
				}
			}
		})
	}
}

// policyTree adds the non-Go files the policies read to the module's Go
// files.
func (m *module) policyTree() (*tree, error) {
	tr := &tree{fset: m.fset, goSrc: m.files, m: m}
	asm, err := filepath.Glob(filepath.Join(m.root, "internal", "linalg", "*.s"))
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(m.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(mustRel(m.root, p))
		if d.IsDir() {
			if rel == ".git" || rel == "bench/out" {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, _ := path.Match("BENCH_*.json", d.Name()); ok {
			asm = append(asm, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range asm {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		tr.other = append(tr.other, &srcFile{rel: filepath.ToSlash(mustRel(m.root, p)), src: src})
	}
	return tr, nil
}

// with returns the tree plus one more file.
func (tr *tree) with(rel, src string) (*tree, error) {
	out := *tr
	f := &srcFile{rel: rel, src: []byte(src), test: strings.HasSuffix(rel, "_test.go")}
	if strings.HasSuffix(rel, ".go") {
		a, err := parser.ParseFile(tr.fset, rel, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		f.ast = a
		out.goSrc = append(append([]*srcFile(nil), tr.goSrc...), f)
	} else {
		out.other = append(append([]*srcFile(nil), tr.other...), f)
	}
	return &out, nil
}

// commentedOut turns a fixture into a file that only mentions it: its Go
// package clause kept, every other line a comment.
func commentedOut(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "package ") {
			b.WriteString(line + "\n")
			continue
		}
		b.WriteString("// " + line + "\n")
	}
	return b.String()
}

// goFiles returns the Go files that pass keep.
func (tr *tree) goFiles(keep func(*srcFile) bool) []*srcFile {
	var out []*srcFile
	for _, f := range tr.goSrc {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

func nonTest(f *srcFile) bool { return !f.test }

func anyFile(*srcFile) bool { return true }

func under(dirs ...string) func(*srcFile) bool {
	return func(f *srcFile) bool {
		for _, d := range dirs {
			if path.Dir(f.rel) == d {
				return true
			}
		}
		return false
	}
}

func and(preds ...func(*srcFile) bool) func(*srcFile) bool {
	return func(f *srcFile) bool {
		for _, p := range preds {
			if !p(f) {
				return false
			}
		}
		return true
	}
}

func not(p func(*srcFile) bool) func(*srcFile) bool {
	return func(f *srcFile) bool { return !p(f) }
}

func (tr *tree) site(n ast.Node, msg string) string {
	return fmt.Sprintf("%s: %s", tr.fset.Position(n.Pos()), msg)
}

// calleeName is the name a call goes through: f for f(...), x.f(...) and
// pkg.f(...) alike.
func calleeName(c *ast.CallExpr) string {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.IndexExpr: // an instantiated generic
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// pkgCall reports whether c calls importPath's function name in file f.
func pkgCall(f *ast.File, c *ast.CallExpr, importPath, name string) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && fileImports(f)[x.Name] == importPath
}

// each walks every node of type N in the files.
func each[N ast.Node](files []*srcFile, visit func(f *srcFile, n N)) {
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if x, ok := n.(N); ok {
				visit(f, x)
			}
			return true
		})
	}
}

// identsContaining flags every identifier whose name contains one of the
// retired names.
func identsContaining(tr *tree, files []*srcFile, msg string, names ...string) []string {
	var out []string
	each(files, func(f *srcFile, id *ast.Ident) {
		for _, n := range names {
			if strings.Contains(id.Name, n) {
				out = append(out, tr.site(id, msg))
				return
			}
		}
	})
	return out
}

// typeInfo type-checks the tree's non-test files of the package in dir, the
// ones the host builds plus any a fixture added, against the module's
// already-checked packages, and returns what each selector selects and each
// expression's type.
func (tr *tree) typeInfo(dir string) (*types.Info, error) {
	ip := modulePath
	if dir != "." {
		ip = path.Join(modulePath, dir)
	}
	excluded := map[*srcFile]bool{}
	if pk, ok := tr.m.pkgs[ip]; ok {
		for _, f := range pk.excluded {
			excluded[f] = true
		}
	}
	var files []*ast.File
	for _, f := range tr.goFiles(and(nonTest, under(dir))) {
		if !excluded[f] {
			files = append(files, f.ast)
		}
	}
	info := &types.Info{
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if pk, ok := tr.m.pkgs[p]; ok {
			return pk.types, nil
		}
		return tr.m.std.Import(p)
	})}
	if _, err := conf.Check(ip, tr.fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", ip, err)
	}
	return info, nil
}

// callSites flags every call of a function or method named name.
func callSites(tr *tree, files []*srcFile, name string) []string {
	var out []string
	each(files, func(f *srcFile, c *ast.CallExpr) {
		if calleeName(c) == name {
			out = append(out, tr.fset.Position(c.Pos()).String())
		}
	})
	return out
}

func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

var policies = []policy{
	// Replace, don't fork: a "Deprecated:" declaration is a second
	// implementation kept alive beside its replacement. Every caller lives in
	// this module, so the change that adds the replacement ports them and
	// deletes the old entry point instead of marking it.
	{
		name: "No deprecated API",
		check: func(tr *tree) []string {
			const msg = "delete the deprecated declarations above (and port their callers) instead of keeping them"
			var out []string
			each(tr.goFiles(nonTest), func(f *srcFile, n ast.Node) {
				var doc *ast.CommentGroup
				switch d := n.(type) {
				case *ast.FuncDecl:
					doc = d.Doc
				case *ast.GenDecl:
					doc = d.Doc
				case *ast.TypeSpec:
					doc = d.Doc
				case *ast.ValueSpec:
					doc = d.Doc
				case *ast.Field:
					doc = d.Doc
				}
				if doc == nil {
					return
				}
				for _, line := range strings.Split(doc.Text(), "\n") {
					if strings.HasPrefix(line, "Deprecated:") {
						out = append(out, tr.site(n, msg))
						return
					}
				}
			})
			return out
		},
		fixtures: []fixture{{"internal/retry/fixture.go", `package retry

// OldPolicy returns the production policy.
//
// Deprecated: use the remote retry policy.
func OldPolicy() int { return 4 }
`}},
	},
	// One way to ingest: transport.Backend is one interface, and a capability
	// a backend lacks (durability, retained history) is said through a return
	// value — ok == false, *EpochNotRetainedError. An optional-capability
	// interface beside it is a second mechanism for the same fact, with a type
	// assertion and an untested "not supported" branch at every call site.
	{
		name: "One backend interface",
		check: func(tr *tree) []string {
			return identsContaining(tr, tr.goFiles(nonTest),
				"add the method to transport.Backend (optionality goes through its return values) instead of the optional interface above",
				"KeyedBackend", "DurableBackend", "HistoryBackend", "QueryBackend")
		},
		fixtures: []fixture{{"internal/transport/fixture.go", `package transport

type KeyedBackend interface{ IngestKeyed(key string) error }
`}},
	},
	// One absorb loop: the root package's Collector is the only in-process
	// collector, and it calls Aggregator.Check in one place (Collector.check)
	// and Aggregator.Absorb in one place (Collector.absorbLocked). Single
	// reports, keyed batches and WAL replay all go through those two loops,
	// so "every report of a batch is Checked before any is Absorbed" and the
	// counter's one publishing add are written once. The rule matches by
	// type: any selection of Check or Absorb on a value whose type implements
	// the Aggregator interface, whatever the value is called.
	{
		name: "One absorb loop",
		check: func(tr *tree) []string {
			ti, err := tr.typeInfo(".")
			if err != nil {
				return []string{err.Error()}
			}
			agg := tr.m.pkgs[modulePath+"/internal/protocol"].types.Scope().Lookup("Aggregator").Type().Underlying().(*types.Interface)
			sites := map[string][]string{}
			for sel, s := range ti.Selections {
				name := s.Obj().Name()
				if s.Kind() != types.MethodVal || (name != "Check" && name != "Absorb") {
					continue
				}
				if recv := s.Recv(); types.Implements(recv, agg) || types.Implements(types.NewPointer(recv), agg) {
					sites[name] = append(sites[name], tr.fset.Position(sel.Pos()).String())
				}
			}
			var out []string
			for _, name := range []string{"Absorb", "Check"} {
				if got := sites[name]; len(got) != 1 {
					sort.Strings(got)
					out = append(out, fmt.Sprintf("%s: the root package calls an aggregator's %s from %d places outside tests, want 1: go through Collector.check and Collector.absorbLocked instead of a second loop",
						strings.Join(got, ", "), name, len(got)))
				}
			}
			return out
		},
		fixtures: []fixture{
			{"server.go", `package ldp

import "fmt"

type Server struct {
	agg   Aggregator
	acc   []float64
	count int
}

func (sv *Server) IngestBatch(reports []Report) error {
	for i, r := range reports {
		if err := sv.agg.Check(r); err != nil {
			return fmt.Errorf("ldp: batch element %d: %w", i, err)
		}
	}
	for _, r := range reports {
		if err := sv.agg.Absorb(sv.acc, r); err != nil {
			return fmt.Errorf("ldp: validated report failed to absorb: %w", err)
		}
		sv.count++
	}
	return nil
}
`},
			{"replay.go", `package ldp

func (c *Collector) replayInto(acc []float64, reports []Report) error {
	a := c.agg
	for _, r := range reports {
		if err := a.Check(r); err != nil {
			return err
		}
	}
	for _, r := range reports {
		if err := a.Absorb(acc, r); err != nil {
			return err
		}
	}
	return nil
}
`},
		},
	},
	// Per-query variance has one implementation: varianceForm in estimator.go
	// (w_iᵀ·Ĉov(x̂)·w_i per snapshot, with Ĉov = B·diag(y)·Bᵀ − diag(B·y) for
	// a strategy and the diagonal of CountVariance(x̂_j, N) for an oracle).
	// Variance, VarianceStream, AnswerStream and ConfidenceIntervals collect
	// that one loop; AnswerBatch, POST /query and ldpquery read it through
	// them. A second way to compute the same number — a materialized V = W·B, a
	// per-row rebuild, a row cache, a size refusal — brings back the
	// bit-identity contract between them.
	{
		name: "One variance form",
		check: func(tr *tree) []string {
			return identsContaining(tr, tr.goFiles(nonTest),
				"compute per-query variance through varianceForm (estimator.go) instead of the second implementation above",
				"maxVarianceElems", "sharedRowCache", "rowVariancer", "prepareVariance", "batchVariance")
		},
		fixtures: []fixture{{"fixture.go", `package ldp

const maxVarianceElems = 1 << 24
`}},
	},
	// One read path: the unbiased answers W·x̂ and their variances are read
	// through an Estimator alone. In the root package x̂ is computed
	// (Aggregator.EstimateCounts) and the variance form built
	// (newVarianceForm) only in estimator.go; AnswerBatch, POST /query and
	// ldpquery call the pooled estimator's reads. A batch path with its own x̂,
	// its own shared form and a snapshot-pinned answer cache beside it was a
	// second statement of every read, held bit-equal to the first by tests.
	{
		name: "One read path",
		check: func(tr *tree) []string {
			const msg = "read answers and variances through the Estimator (estimator.go) instead of the second read path above"
			var out []string
			each(tr.goFiles(and(nonTest, under("."))), func(f *srcFile, c *ast.CallExpr) {
				if name := calleeName(c); (name == "EstimateCounts" || name == "newVarianceForm") && path.Base(f.rel) != "estimator.go" {
					out = append(out, tr.site(c, msg))
				}
			})
			return append(out, identsContaining(tr, tr.goFiles(anyFile), msg,
				"answerHolder", "cachedAnswer", "hashRow", "AnswerHits", "AnswerInvalidations")...)
		},
		fixtures: []fixture{{"pool_batch.go", `package ldp

func (p *EstimatorPool) AnswerBatch(agg Aggregator, s Snapshot, workloads []Workload, opts ...BatchOption) ([]BatchAnswer, error) {
	var cfg batchConfig
	for _, o := range opts {
		o(&cfg)
	}
	if len(workloads) == 0 {
		return nil, nil
	}
	// Resolve every estimator first: identity and domain checks fail the
	// batch before any computation, and the pool guarantees each distinct
	// workload builds at most once.
	digests := make([]string, len(workloads))
	for i, w := range workloads {
		est, err := p.Estimator(agg, w)
		if err != nil {
			return nil, fmt.Errorf("ldp: batch workload %d (%s): %w", i, w.Name(), err)
		}
		if err := est.Check(s); err != nil {
			return nil, fmt.Errorf("ldp: batch workload %d (%s): %w", i, w.Name(), err)
		}
		digests[i] = p.workloadDigest(w)
	}
	// The answer cache pins one snapshot per mechanism identity: a batch
	// observing a different snapshot (epoch advance, or any state change the
	// fingerprint catches) invalidates the identity's cached answers first.
	ik := p.identityKeyOf(agg)
	hkey := answerHolderKey{epoch: s.epoch, countBits: math.Float64bits(s.count), stateHash: hashRow(s.state)}
	holder := p.answerHolder(ik, hkey)

	// The shared subexpression every workload needs: x̂ once, not k times —
	// skipped when every workload in the batch is a cache hit.
	var xh []float64
	estimate := func() []float64 {
		if xh == nil {
			xh = agg.EstimateCounts(s.state, s.count)
		}
		return xh
	}

	// Likewise the variance form, built by the first miss that wants it.
	var form *varianceForm
	out := make([]BatchAnswer, len(workloads))
	firstByDigest := make(map[string]int, len(workloads))
	for i, w := range workloads {
		ckey := digests[i]
		if cfg.variance {
			ckey += "|v"
		}
		if ca, ok := holder.lookup(p, ckey); ok {
			out[i] = BatchAnswer{Workload: w, Digest: digests[i],
				Answers: append([]float64(nil), ca.answers...)}
			if ca.variance != nil {
				out[i].Variance = append([]float64(nil), ca.variance...)
			}
			p.stats.answerHits.Add(1)
			if _, seen := firstByDigest[digests[i]]; !seen {
				firstByDigest[digests[i]] = i
			}
			continue
		}
		if j, ok := firstByDigest[digests[i]]; ok {
			// Same digest, same workload: share the computation, copy the
			// slices so callers own their results independently.
			out[i] = BatchAnswer{Workload: w, Digest: digests[i],
				Answers: append([]float64(nil), out[j].Answers...)}
			if out[j].Variance != nil {
				out[i].Variance = append([]float64(nil), out[j].Variance...)
			}
			continue
		}
		firstByDigest[digests[i]] = i
		ba := BatchAnswer{Workload: w, Digest: digests[i], Answers: w.MatVec(estimate())}
		if cfg.variance {
			if form == nil {
				var err error
				if form, err = newVarianceForm(agg, s); err != nil {
					return nil, fmt.Errorf("ldp: batch workload %d (%s): %w", i, w.Name(), err)
				}
			}
			ba.Variance = make([]float64, w.Queries())
			form.each(w, func(q int, v float64) bool { ba.Variance[q] = v; return true })
		}
		out[i] = ba
		holder.store(p, ckey, cachedAnswer{
			answers:  append([]float64(nil), ba.Answers...),
			variance: append([]float64(nil), ba.Variance...),
		})
	}
	return out, nil
}
`}},
	},
	// One M form: M = QᵀD_p⁻¹Q is formed in one place — strategy.NormalForm's
	// Form, through linalg.MulAtBSymTo (one triangle accumulated, then
	// mirrored). The optimizer's Workspace embeds a NormalForm; the
	// reconstruction and Strategy.Objective build a fresh one. A second call
	// site is a second statement of D_p, Qs and M that has to be kept equal
	// to the first to the bit, and the full product MulAtB(q, qs) +
	// Symmetrize() is 4n³ extra flops per iteration for a matrix symmetric
	// only by repair. Likewise L(Q) outside the hot loop is
	// Strategy.Objective alone, B is Reconstruction().B alone, and Algorithm
	// 1's clip-and-absorb pass is opt.projectCols alone: the one-shot entry
	// points below are the duplicates that were retired.
	{
		name: "One M form",
		check: func(tr *tree) []string {
			var out []string
			outsideLinalg := tr.goFiles(and(nonTest, not(under("internal/linalg"))))
			files := map[string]bool{}
			var sites []string
			each(outsideLinalg, func(f *srcFile, c *ast.CallExpr) {
				if calleeName(c) == "MulAtBSymTo" {
					files[f.rel] = true
					sites = append(sites, tr.fset.Position(c.Pos()).String())
				}
			})
			if len(files) != 1 {
				out = append(out, fmt.Sprintf("%s: M = QᵀD⁻¹Q is formed by strategy.NormalForm.Form and nowhere else (%d files call MulAtBSymTo outside internal/linalg, want 1)",
					strings.Join(sites, ", "), len(files)))
			}
			each(outsideLinalg, func(f *srcFile, c *ast.CallExpr) {
				if pkgCall(f.ast, c, modulePath+"/internal/linalg", "MulAtB") || pkgCall(f.ast, c, modulePath+"/internal/linalg", "MulAtBTo") {
					for _, a := range c.Args {
						if mentionsIdent(a, "qs") {
							out = append(out, tr.site(c, "form M = QᵀD⁻¹Q with strategy.NormalForm instead of the full product above"))
							return
						}
					}
				}
			})
			const retired = "use Workspace.ObjectiveGrad, Strategy.Objective, Reconstruction().B or opt.ProjectMatrix instead of the second implementation above"
			hot := tr.goFiles(and(nonTest, under("internal/core", "internal/opt", "internal/strategy")))
			each(hot, func(f *srcFile, d *ast.FuncDecl) {
				n := d.Name.Name
				if d.Recv == nil && (n == "ProjectColumn" || n == "Objective" || n == "ObjectiveGrad" || strings.HasPrefix(n, "ObjectiveGradPrior")) {
					out = append(out, tr.site(d, retired))
				}
			})
			return append(out, identsContaining(tr, hot, retired, "GradZForTest", "ReconFactor")...)
		},
		fixtures: []fixture{
			{"internal/core/fixture.go", `package core

func form(m, q, qs *linalg.Matrix) { linalg.MulAtBSymTo(m, q, qs) }
`},
			{"internal/strategy/fixture.go", `package strategy

import "repro/internal/linalg"

func full(q, qs *linalg.Matrix) *linalg.Matrix { return linalg.MulAtB(q, qs).Symmetrize() }
`},
			{"internal/strategy/objective.go", `package strategy

func Objective(q, gram *linalg.Matrix) (float64, error) { return 0, nil }
`},
			{"internal/strategy/recon_factor.go", `package strategy

type ReconFactor struct{}
`},
		},
	},
	// One descent loop: every projected-gradient run — the three step-size
	// pilots, a fixed-step run, the main run — is a core.descent, and
	// descent.advance is the one iteration loop. A second loop shows up as a
	// second call of gradZ or of the loop's projection, and a second
	// NewWorkspace (in the step-size search, say) is an extra m×n-buffer set
	// per call: each has exactly one call site outside tests.
	{
		name: "One descent loop",
		check: func(tr *tree) []string {
			var out []string
			core := tr.goFiles(and(nonTest, under("internal/core")))
			for _, call := range []string{"gradZ", "ProjectMatrixInto", "NewWorkspace"} {
				if sites := callSites(tr, core, call); len(sites) != 1 {
					out = append(out, fmt.Sprintf("%s: internal/core calls %s( from %d places outside tests, want 1: run it through descent.advance (or OptimizeGram's one workspace) instead of a second loop",
						strings.Join(sites, ", "), call, len(sites)))
				}
			}
			return out
		},
		fixtures: []fixture{{"internal/core/fixture.go", `package core

func pilot(m, n int) *Workspace { return NewWorkspace(m, n) }
`}},
	},
	// One report form: a unary report's bits have one in-memory form — the
	// wire's. protocol.BitVec holds the frame's bit-vector field byte for
	// byte, so DecodeReports adopts it in place, the frame and WAL encoders
	// copy it, Randomize writes packed bits and Absorb walks set bits. A
	// []bool on the ingest path is the second form growing back, with a
	// per-bit pack or unpack loop at each layer boundary it crosses; a
	// single-frame EncodeReports beside AppendReportsFrame[s] is the second
	// frame writer.
	{
		name: "One report form",
		check: func(tr *tree) []string {
			var out []string
			ingest := and(nonTest, func(f *srcFile) bool {
				switch f.rel {
				case "internal/strategy/protocol.go", "fleet.go", "router.go", "remote.go", "collector.go", "durability.go":
					return true
				}
				return under("internal/protocol", "internal/transport", "internal/durable", "internal/freqoracle")(f)
			})
			each(tr.goFiles(ingest), func(f *srcFile, a *ast.ArrayType) {
				if id, ok := a.Elt.(*ast.Ident); ok && a.Len == nil && id.Name == "bool" {
					out = append(out, tr.site(a, "carry report bits as protocol.BitVec (NewBitVec/Set/Get/Packed) instead of the []bool above"))
				}
			})
			const msg = "frame reports with transport.AppendReportsFrame / AppendReportsFrames instead of the writer above"
			each(tr.goFiles(nonTest), func(f *srcFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.CallExpr:
					if calleeName(n) == "EncodeReports" {
						out = append(out, tr.site(n, msg))
					}
				case *ast.FuncDecl:
					if n.Name.Name == "EncodeReports" {
						out = append(out, tr.site(n, msg))
					}
				}
			})
			return out
		},
		fixtures: []fixture{
			{"internal/protocol/fixture.go", `package protocol

type unary struct{ bits []bool }
`},
			{"internal/transport/fixture.go", `package transport

func EncodeReports(w io.Writer, reports []protocol.Report) error { return nil }
`},
		},
	},
	// One checkpoint codec: a checkpoint's idempotency-key table has one
	// in-memory form between the file and the live store — the store's own
	// keyTable. durable's readCheckpointFile walks and validates the table
	// and hands each entry to a visitor; it never returns one, so a reader
	// that wants only the snapshot builds nothing. A buffered
	// encodeCheckpoint/DecodeCheckpoint in production code is the second
	// codec growing back (it lives in a _test.go file, as the reference the
	// streaming one is compared against); SeededKey is the second struct for
	// "(key, reports)" (transport.KeyCount is the one); and a call site that
	// binds a key slice from the reader is the []KeyCount → keyTable →
	// []KeyCount chain again.
	{
		name: "One checkpoint codec",
		check: func(tr *tree) []string {
			var out []string
			each(tr.goFiles(nonTest), func(f *srcFile, d *ast.FuncDecl) {
				if strings.HasPrefix(d.Name.Name, "encodeCheckpoint") || strings.HasPrefix(d.Name.Name, "DecodeCheckpoint") {
					out = append(out, tr.site(d, "keep the buffered checkpoint codec in a _test.go file; production reads and writes through durable's readCheckpointFile / writeCheckpointFile"))
				}
			})
			out = append(out, identsContaining(tr, tr.goFiles(anyFile), "use transport.KeyCount instead of the second (key, reports) type above", "SeededKey")...)
			each(tr.goFiles(anyFile), func(f *srcFile, as *ast.AssignStmt) {
				calls := false
				for _, r := range as.Rhs {
					if c, ok := r.(*ast.CallExpr); ok && calleeName(c) == "readCheckpointFile" {
						calls = true
					}
				}
				if !calls {
					return
				}
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok && (id.Name == "keys" || id.Name == "ckptKeys") {
						out = append(out, tr.site(as, "pass readCheckpointFile a visitor (or nil) instead of binding a key table at the call site above"))
						return
					}
				}
			})
			return out
		},
		fixtures: []fixture{
			{"internal/durable/fixture.go", `package durable

func DecodeCheckpoint(data []byte) (transport.Snapshot, error) { return transport.Snapshot{}, nil }
`},
			{"internal/durable/fixture_test.go", `package durable

type SeededKey struct {
	Key     string
	Reports int64
}
`},
			{"internal/durable/fixture_test.go", `package durable

func reopen(path string) {
	snap, keys, err := readCheckpointFile(path, 7, nil)
	_, _, _ = snap, keys, err
}
`},
		},
	},
	// One file discipline: every file this system replaces whole — a
	// checkpoint, a compacted binding log, a gzipped WAL segment, a
	// strategy-cache entry — goes through durable.ReplaceFile:
	// temp file, write, fsync, close, rename, directory fsync, the temp file
	// removed on any failure. A second os.CreateTemp or os.Rename is a second
	// replace sequence to keep equal to the first. The one exception is
	// internal/loadgen's address-file handoff (deploy.go): a shard subprocess
	// publishes its listen address to the parent polling for it, which
	// nothing reads after a crash.
	{
		name: "One file discipline",
		check: func(tr *tree) []string {
			var out []string
			files := tr.goFiles(and(nonTest, func(f *srcFile) bool {
				return f.rel != "internal/loadgen/deploy.go" && !strings.HasPrefix(f.rel, "bench/")
			}))
			for _, call := range []string{"CreateTemp", "Rename"} {
				var sites []string
				inDurable := false
				each(files, func(f *srcFile, c *ast.CallExpr) {
					if pkgCall(f.ast, c, "os", call) {
						sites = append(sites, tr.fset.Position(c.Pos()).String())
						inDurable = inDurable || f.rel == "internal/durable/file.go"
					}
				})
				if len(sites) != 1 || !inDurable {
					out = append(out, fmt.Sprintf("%s: replace files through durable.ReplaceFile instead of the os.%s( above (internal/loadgen's address-file handoff is the one exception)",
						strings.Join(sites, ", "), call))
				}
			}
			return out
		},
		fixtures: []fixture{{"pool_cache.go", `package ldp

import "os"

func persist(tmp, path string) error { return os.Rename(tmp, path) }
`}},
	},
	// One fan-in reader: ldpquery -servers is the one command that merges
	// shards on the client, with one setup, one coverage report and one row
	// printer for one-shot, -watch, -as-of and -window reads. Another command
	// that reads a Fleet's merged snapshot is a second fan-in whose flags,
	// output and degradation handling drift from the first. The rule matches
	// by type: Snap or SnapAt selected on a *ldp.Fleet in a non-test file
	// under cmd/.
	{
		name: "One fan-in reader",
		check: func(tr *tree) []string {
			dirs := map[string]bool{}
			for _, f := range tr.goFiles(and(nonTest, func(f *srcFile) bool {
				return strings.HasPrefix(f.rel, "cmd/") && path.Dir(f.rel) != "cmd/ldpquery"
			})) {
				dirs[path.Dir(f.rel)] = true
			}
			fleet := types.NewPointer(tr.m.pkgs[modulePath].types.Scope().Lookup("Fleet").Type())
			var out []string
			for dir := range dirs {
				ti, err := tr.typeInfo(dir)
				if err != nil {
					out = append(out, err.Error())
					continue
				}
				for sel, s := range ti.Selections {
					if name := s.Obj().Name(); s.Kind() == types.MethodVal && (name == "Snap" || name == "SnapAt") && types.Identical(s.Recv(), fleet) {
						out = append(out, tr.site(sel, "read a fleet's merged snapshot through ldpquery -servers instead of a second fan-in command"))
					}
				}
			}
			sort.Strings(out)
			return out
		},
		fixtures: []fixture{{"cmd/ldpfed/main.go", `package main

import (
	"context"
	"fmt"
	"io"

	ldp "repro"
)

type fed struct {
	fleet     *ldp.Fleet
	est       *ldp.Estimator
	window    uint64
	out, errw io.Writer
}

func (f *fed) mergeAndReport(ctx context.Context) error {
	merged, cov, err := f.fleet.Snap(ctx)
	if err != nil {
		return err
	}
	for _, sc := range cov.Shards {
		fmt.Fprintf(f.out, "%-32s %8s %12d %8d\n", sc.Endpoint, sc.Status, int(sc.Count), sc.Epoch)
	}
	if !cov.Complete() {
		fmt.Fprintf(f.errw, "ldpfed: WARNING: partial merge, coverage %s\n", cov)
	}
	unbiased, err := f.est.Answers(merged)
	if err != nil {
		return err
	}
	consistent, err := f.est.ConsistentAnswers(merged)
	if err != nil {
		return err
	}
	for i := range unbiased {
		fmt.Fprintf(f.out, "%-8d %14.1f %14.1f\n", i, unbiased[i], consistent[i])
	}
	if f.window > 0 && merged.Epoch() > f.window {
		hist, _, err := f.fleet.SnapAt(ctx, merged.Epoch()-f.window)
		if err != nil {
			return err
		}
		window, err := merged.Diff(hist)
		if err != nil {
			return err
		}
		answers, err := f.est.Answers(window)
		if err != nil {
			return err
		}
		fmt.Fprintln(f.out, answers)
	}
	return nil
}
`}},
	},
	// One shard process: a harness shard that must die by SIGKILL is a
	// loadgen.Shard — a re-exec of the current binary under the LDPLOAD_*
	// environment, watched so that an exit it did not cause (a race report
	// under GORACE=halt_on_error=1, a crash) fails the spawn or the run. A
	// file elsewhere that both starts a process and builds a collector is a
	// second re-exec protocol whose child can race or die unseen.
	{
		name: "One shard process",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.goFiles(func(f *srcFile) bool { return !strings.HasPrefix(f.rel, "internal/loadgen/") }) {
				var execs []string
				collector := false
				each([]*srcFile{f}, func(f *srcFile, c *ast.CallExpr) {
					if pkgCall(f.ast, c, "os/exec", "Command") {
						execs = append(execs, tr.site(c, "start a shard process through loadgen.StartShard instead of the re-exec above"))
					}
					collector = collector || calleeName(c) == "NewCollector" || calleeName(c) == "NewCollectorService"
				})
				if collector {
					out = append(out, execs...)
				}
			}
			return out
		},
		fixtures: []fixture{{"chaos_shard_test.go", `package ldp_test

import (
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"

	ldp "repro"
)

func TestChaosShardProcess(t *testing.T) {
	o, _ := ldp.OracleByName("OUE", 32, 1)
	col, _ := ldp.NewCollector(o, ldp.Histogram(32), 0, ldp.WithDurability(os.Getenv("LDP_CHAOS_DATA_DIR")))
	svc, _ := ldp.NewCollectorService(col, ldp.MechanismInfoOf(o))
	httptest.NewServer(svc.Handler())
	select {}
}

func startShardProcess(dataDir string) error {
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosShardProcess$")
	cmd.Env = append(os.Environ(), "LDP_CHAOS_SHARD=1", "LDP_CHAOS_DATA_DIR="+dataDir)
	return cmd.Start()
}
`}},
	},
	// No fused multiply-add: addMul4's assembly body stands in for a Go loop
	// that rounds every product and every sum, and every strategy, golden and
	// pinned hash in the tree is those roundings. VFMADD* rounds once where
	// the loop rounds twice: the kernel would get faster and every result
	// would move in its last bits, differently on machines with and without
	// the vector unit.
	{
		name: "No fused multiply-add",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.other {
				if ok, _ := path.Match("internal/linalg/*.s", f.rel); !ok {
					continue
				}
				for i, line := range strings.Split(string(f.src), "\n") {
					if c := strings.Index(line, "//"); c >= 0 {
						line = line[:c]
					}
					for _, op := range []string{"VFMADD", "VFNMADD", "VFMSUB"} {
						if strings.Contains(line, op) {
							out = append(out, fmt.Sprintf("%s:%d: keep the multiply and the add separate (VMULPD then VADDPD) instead of the fused instruction above", f.rel, i+1))
							break
						}
					}
				}
			}
			return out
		},
		fixtures: []fixture{{"internal/linalg/fixture_amd64.s", `TEXT ·fused(SB), $0
	VFMADD231PD Y1, Y2, Y0
	RET
`}},
	},
	// One row form: QueryRow (internal/workload/rows.go) is the only
	// hand-written statement of a workload's entries. A Matrix() materializer
	// beside it states them a second time — the two disagreed in the sign of
	// a zero for Product, which is a different digest and so a renamed
	// strategy-cache entry — and an optional RowAccessor capability brings
	// back a type assertion with a fallback that rebuilds what QueryRow
	// already says. Outside tests nothing builds W: workload.Materialize is
	// QueryRow collected, for tests. internal/benchfix was a second copy of
	// the randomized-response matrix; baselines.RandomizedResponse is the
	// one.
	{
		name: "One row form",
		check: func(tr *tree) []string {
			const second = "state the entries once, in QueryRow, instead of the second form above"
			wl := tr.goFiles(and(nonTest, under("internal/workload")))
			out := identsContaining(tr, wl, second, "RowAccessor")
			each(wl, func(f *srcFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.CallExpr:
					if calleeName(n) == "rowInto" {
						out = append(out, tr.site(n, second))
					}
				case *ast.FuncDecl:
					if n.Recv != nil && n.Name.Name == "Matrix" && n.Type.Params.NumFields() == 0 && n.Type.Results.NumFields() == 1 {
						if star, ok := n.Type.Results.List[0].Type.(*ast.StarExpr); ok {
							if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Matrix" {
								out = append(out, tr.site(n, second))
							}
						}
					}
				}
			})
			each(tr.goFiles(nonTest), func(f *srcFile, c *ast.CallExpr) {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Matrix" && len(c.Args) == 0 {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "w" {
						out = append(out, tr.site(c, "read W a row at a time (Workload.QueryRow) or through Gram/MatVec instead of materializing it above"))
					}
				}
			})
			each(tr.goFiles(anyFile), func(f *srcFile, is *ast.ImportSpec) {
				if strings.Trim(is.Path.Value, `"`) == modulePath+"/internal/benchfix" {
					out = append(out, tr.site(is, "use baselines.RandomizedResponse(n, eps).Strategy() instead of the second randomized-response fixture above"))
				}
			})
			return out
		},
		fixtures: []fixture{
			{"internal/workload/fixture.go", `package workload

func (h *Histogram) Matrix() *linalg.Matrix { return linalg.Identity(h.n) }
`},
			{"internal/workload/fixture.go", `package workload

type RowAccessor interface{ Row(i int, dst []float64) }
`},
			{"estimator_fixture.go", `package ldp

func explicit(w *workload.Explicit) *linalg.Matrix { return w.Matrix() }
`},
			{"internal/core/fixture_test.go", `package core

import "repro/internal/benchfix"

var _ = benchfix.RR
`},
		},
	},
	// One ledger: bench/ + BENCHMARK.json is the only performance instrument
	// and the only perf gate. A BENCH_*.json result file is a second result
	// schema, and testing.Benchmark in non-test Go outside bench/ is a second
	// harness growing back; allocation pins live in tier-1 as
	// testing.AllocsPerRun assertions, which need no baseline file.
	{
		name: "One ledger",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.other {
				if ok, _ := path.Match("BENCH_*.json", path.Base(f.rel)); ok {
					out = append(out, f.rel+": record performance in bench/ (BENCHMARK.json), not in the result files above")
				}
			}
			outsideBench := tr.goFiles(and(nonTest, func(f *srcFile) bool { return !strings.HasPrefix(f.rel, "bench/") }))
			each(outsideBench, func(f *srcFile, c *ast.CallExpr) {
				if pkgCall(f.ast, c, "testing", "Benchmark") {
					out = append(out, tr.site(c, "time the call as a per_layer metric in bench/ instead of the second harness above"))
				}
			})
			return out
		},
		fixtures: []fixture{
			{"BENCH_optimize.json", `{"OptimizeEndToEnd/n=64": {"ns_per_op": 870000000}}`},
			{"internal/obs/fixture.go", `package obs

import "testing"

func measure(f func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
	})
}
`},
		},
	},
	// One idempotency horizon: transport.KeyHorizon is the one bounded key
	// table — IdempotencyHorizon keys, evicted in first-seen order — behind
	// the shard's outcome cache, a durable store's key table, the binding
	// log's replay and the router's key→shard bindings. A second table that
	// evicts in its own order (an LRU over container/list, or a loop or a
	// new*/New* constructor bounded by IdempotencyHorizon outside
	// internal/transport)
	// is how a keyed retry came to be absorbed or not depending on whether
	// the process restarted in between. Size checks (the checkpoint's key
	// count, the binding log's record bound) evict nothing and do not fire.
	{
		name: "One idempotency horizon",
		check: func(tr *tree) []string {
			const msg = "keep idempotency keys in a transport.KeyHorizon instead of the table above"
			var out []string
			each(tr.goFiles(nonTest), func(f *srcFile, is *ast.ImportSpec) {
				if strings.Trim(is.Path.Value, `"`) == "container/list" {
					out = append(out, tr.site(is, msg))
				}
			})
			horizon := func(e ast.Expr) bool {
				sel, ok := e.(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "IdempotencyHorizon"
			}
			each(tr.goFiles(and(nonTest, func(f *srcFile) bool { return !strings.HasPrefix(f.rel, "internal/transport/") })), func(f *srcFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.ForStmt:
					if n.Cond != nil && mentionsIdent(n.Cond, "IdempotencyHorizon") {
						out = append(out, tr.site(n, msg))
					}
				case *ast.CallExpr:
					if name := calleeName(n); !strings.HasPrefix(name, "new") && !strings.HasPrefix(name, "New") {
						return
					}
					for _, a := range n.Args {
						if horizon(a) {
							out = append(out, tr.site(n, msg))
						}
					}
				}
			})
			return out
		},
		fixtures: []fixture{
			{"internal/durable/fixture.go", `package durable

import "repro/internal/transport"

type orderedKeys struct {
	order []string
	count map[string]int64
}

func (t *orderedKeys) add(key string, reports int64) {
	if _, ok := t.count[key]; !ok {
		t.order = append(t.order, key)
		for len(t.order) > transport.IdempotencyHorizon {
			delete(t.count, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.count[key] += reports
}
`},
			{"fleet_fixture.go", `package ldp

import "repro/internal/transport"

func newBindings() *keyBindings { return newKeyBindings(transport.IdempotencyHorizon) }
`},
			{"internal/transport/fixture.go", `package transport

import "container/list"

type idemCache struct {
	order *list.List
	byKey map[string]*list.Element
}
`},
		},
	},
	// One identity door: "was this snapshot aggregated under my mechanism?"
	// is decided in snapshot.go's admit alone — the width, then every
	// identity field both sides declare, an undeclared (v1) field passing.
	// Every crossing goes through it: a remote /snapshot and /healthz, a
	// checkpoint and a retained one, Merge, Diff, Estimator.Check,
	// FleetServer.EnableQueries and the identity NewCollectorService serves.
	// A call of infoMismatch or mergeInfo
	// elsewhere, or a MechanismInfo compared whole with == or != (which
	// refuses a v1 frame's undeclared fields), is a second statement of the
	// rule. The comparison is matched by type in the root package's non-test
	// files.
	{
		name: "One identity door",
		check: func(tr *tree) []string {
			const msg = "check a foreign identity through admit (snapshot.go) instead of a second statement of the rule"
			ti, err := tr.typeInfo(".")
			if err != nil {
				return []string{err.Error()}
			}
			info := tr.m.pkgs[modulePath+"/internal/transport"].types.Scope().Lookup("Info").Type()
			var out []string
			for _, f := range tr.goFiles(and(nonTest, under("."))) {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "admit" {
						continue
					}
					ast.Inspect(d, func(n ast.Node) bool {
						switch x := n.(type) {
						case *ast.CallExpr:
							if name := calleeName(x); name == "infoMismatch" || name == "mergeInfo" {
								out = append(out, tr.site(x, msg))
							}
						case *ast.BinaryExpr:
							if t := ti.TypeOf(x.X); (x.Op == token.EQL || x.Op == token.NEQ) && t != nil && types.Identical(t, info) {
								out = append(out, tr.site(x, msg))
							}
						}
						return true
					})
				}
			}
			return out
		},
		fixtures: []fixture{
			{"router_fixture.go", `package ldp

import "fmt"

func (s *FleetServer) enableQueriesStrict(agg Aggregator) error {
	if got, want := MechanismInfoOf(agg), s.fleet.Info(); got != want {
		return fmt.Errorf("ldp: query aggregator is %+v, fleet aggregates under %+v — mechanism mismatch", got, want)
	}
	return nil
}
`},
			{"estimator_fixture.go", `package ldp

import "fmt"

func (e *Estimator) checkIdentity(s Snapshot) error {
	if err := infoMismatch(e.info, s.info); err != nil {
		return fmt.Errorf("ldp: snapshot aggregated under a different mechanism configuration: %w", err)
	}
	return nil
}
`},
		},
	},
}
