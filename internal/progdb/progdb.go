// Package progdb implements the paper's program database (§3.2.1, §4.1):
// "information on the program text such as the places where an identifier
// is defined or used", plus "the information obtained by semantic analyses
// of the program, such as the set of variables that may be used or modified
// when invoking a subroutine". The PPD Controller consults it during the
// debugging phase to direct the emulation package and label graph nodes.
package progdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ppd/internal/analysis"
	"ppd/internal/ast"
	"ppd/internal/eblock"
	"ppd/internal/pdg"
	"ppd/internal/sem"
	"ppd/internal/source"
)

// VarSites records where one variable is defined and used (by StmtID).
type VarSites struct {
	Symbol *sem.Symbol
	Scope  string // "" for globals, else the function name
	Defs   []ast.StmtID
	Uses   []ast.StmtID
}

// StmtInfo is the database's per-statement record.
type StmtInfo struct {
	ID       ast.StmtID
	Func     string
	Pos      source.Position
	Text     string // one-line rendering
	IsBranch bool
	Calls    []string
}

// DB is the program database.
type DB struct {
	Prog *ast.Program
	Info *sem.Info
	PDG  *pdg.Program
	Plan *eblock.Plan

	Stmts map[ast.StmtID]*StmtInfo

	vars map[varKey]*VarSites

	// vet caches the static-analysis result: the paper's program database
	// stores "the information obtained by semantic analyses of the
	// program", and the vet diagnostics (with their conflict matrix) are
	// exactly that for the analysis passes. Computed once on demand.
	vetMu sync.Mutex
	vet   *analysis.Result
}

// EnsureVet returns the cached static-analysis result, computing it with
// compute on first use. Safe for concurrent callers; compute runs at most
// once per database.
func (db *DB) EnsureVet(compute func() *analysis.Result) *analysis.Result {
	db.vetMu.Lock()
	defer db.vetMu.Unlock()
	if db.vet == nil {
		db.vet = compute()
	}
	return db.vet
}

// Vet returns the persisted static-analysis result, or nil if no analysis
// has run against this database yet.
func (db *DB) Vet() *analysis.Result {
	db.vetMu.Lock()
	defer db.vetMu.Unlock()
	return db.vet
}

// Build assembles the database from the earlier analyses. Functions are
// indexed in FuncList order, statements in source order, so every
// variable's def and use site lists are in that order too.
func Build(p *pdg.Program, plan *eblock.Plan) *DB {
	nVars := len(p.Info.Globals)
	for _, fn := range p.Info.FuncList {
		nVars += len(fn.Locals)
	}
	db := &DB{
		Prog:  p.Info.Prog,
		Info:  p.Info,
		PDG:   p,
		Plan:  plan,
		Stmts: make(map[ast.StmtID]*StmtInfo, p.Info.Prog.NumStmts),
		vars:  make(map[varKey]*VarSites, nVars),
	}
	sites := make([]VarSites, 0, nVars)
	for _, g := range p.Info.Globals {
		sites = append(sites, VarSites{Symbol: g})
		db.vars[varKey{"", g.Name}] = &sites[len(sites)-1]
	}
	for _, fn := range p.Info.FuncList {
		for _, l := range fn.Locals {
			sites = append(sites, VarSites{Symbol: l, Scope: fn.Name()})
			db.vars[varKey{fn.Name(), l.Name}] = &sites[len(sites)-1]
		}
	}
	ix := &indexer{db: db, infos: make([]StmtInfo, p.Info.Prog.NumStmts)}
	for _, fn := range p.Info.FuncList {
		ix.indexFunc(fn)
	}
	return db
}

// varKey names a variable: its function, empty for globals, and its name.
type varKey struct{ scope, name string }

// indexer fills a database's statements and def/use sites.
type indexer struct {
	db    *DB
	infos []StmtInfo // slab the next statement records come from
	stmts []ast.Stmt
	vars  []*VarSites // the current function's sites by space index
}

// indexFunc records one function's statements and its variables' def and
// use sites.
func (ix *indexer) indexFunc(fn *sem.FuncInfo) {
	db := ix.db
	space := db.PDG.Funcs[fn.Name()].Space
	file := db.Prog.File
	uds := db.PDG.Inter.UseDefs[fn.Name()]
	ix.vars = append(ix.vars[:0], make([]*VarSites, space.Size())...)
	site := func(v int) *VarSites {
		if vs := ix.vars[v]; vs != nil {
			return vs
		}
		sym, scope := space.Symbol(v), ""
		if !space.IsGlobal(v) {
			scope = fn.Name()
		}
		k := varKey{scope, sym.Name}
		vs, ok := db.vars[k]
		if !ok {
			vs = &VarSites{Symbol: sym, Scope: scope}
			db.vars[k] = vs
		}
		ix.vars[v] = vs
		return vs
	}
	ix.stmts = ast.AppendStmts(ix.stmts[:0], fn.Decl.Body)
	for _, s := range ix.stmts {
		id := s.ID()
		var si *StmtInfo
		if len(ix.infos) > 0 {
			si, ix.infos = &ix.infos[0], ix.infos[1:]
		} else {
			si = new(StmtInfo)
		}
		*si = StmtInfo{
			ID:   id,
			Func: fn.Name(),
			Pos:  file.Position(s.Pos()),
			Text: ast.StmtString(s),
		}
		switch s.(type) {
		case *ast.IfStmt, *ast.WhileStmt, *ast.ForStmt:
			si.IsBranch = true
		}
		db.Stmts[id] = si
		ud, ok := uds[id]
		if !ok {
			continue
		}
		si.Calls = ud.Calls
		ud.Def.ForEach(func(v int) {
			vs := site(v)
			vs.Defs = append(vs.Defs, id)
		})
		ud.Use.ForEach(func(v int) {
			vs := site(v)
			vs.Uses = append(vs.Uses, id)
		})
	}
}

// Global returns def/use sites of a global variable, or nil.
func (db *DB) Global(name string) *VarSites { return db.vars[varKey{"", name}] }

// Local returns def/use sites of a function-scoped variable, or nil.
func (db *DB) Local(fn, name string) *VarSites { return db.vars[varKey{fn, name}] }

// Stmt returns the record for a statement ID, or nil.
func (db *DB) Stmt(id ast.StmtID) *StmtInfo { return db.Stmts[id] }

// FuncUsedDefined reports the interprocedural USED/DEFINED global names of
// a function — the paper's canonical program-database query.
func (db *DB) FuncUsedDefined(fn string) (used, defined []string) {
	s, ok := db.PDG.Inter.Summaries[fn]
	if !ok {
		return nil, nil
	}
	for _, id := range s.Used.Elems() {
		used = append(used, db.Info.Globals[id].Name)
	}
	for _, id := range s.Defined.Elems() {
		defined = append(defined, db.Info.Globals[id].Name)
	}
	return used, defined
}

// DefsOf returns the statements that may define the named variable as seen
// from function fn (locals shadow globals).
func (db *DB) DefsOf(fn, name string) []ast.StmtID {
	if vs := db.Local(fn, name); vs != nil {
		return vs.Defs
	}
	if vs := db.Global(name); vs != nil {
		return vs.Defs
	}
	return nil
}

// Dump renders the whole database; `ppd dump` exposes it.
func (db *DB) Dump() string {
	var b strings.Builder
	b.WriteString("=== program database ===\n")

	b.WriteString("globals:\n")
	for _, g := range db.Info.Globals {
		vs := db.Global(g.Name)
		fmt.Fprintf(&b, "  %-12s %-6s defs=%v uses=%v\n", g.Name, g.Kind, vs.Defs, vs.Uses)
	}

	b.WriteString("functions:\n")
	for _, fn := range db.Info.FuncList {
		used, defined := db.FuncUsedDefined(fn.Name())
		fmt.Fprintf(&b, "  %-12s USED=%v DEFINED=%v\n", fn.Name(), used, defined)
	}

	b.WriteString("statements:\n")
	ids := make([]int, 0, len(db.Stmts))
	for id := range db.Stmts {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		si := db.Stmts[ast.StmtID(id)]
		fmt.Fprintf(&b, "  s%-4d %-10s %4d: %s\n", si.ID, si.Func, si.Pos.Line, si.Text)
	}

	b.WriteString(db.Plan.String())
	return b.String()
}
