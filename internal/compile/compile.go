// Package compile is PPD's Compiler/Linker (§3.2.1): it runs the full
// front-end and static-analysis pipeline, then lowers MPL to instrumented
// bytecode. Its Artifacts bundle is exactly the preparatory phase's output:
// the object code / emulation package (one code body, mode-switched), the
// static program dependence graph, and the program database.
package compile

import (
	"sync"

	"ppd/internal/analysis"
	"ppd/internal/analysis/absint"
	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/eblock"
	"ppd/internal/interproc"
	"ppd/internal/obs"
	"ppd/internal/parser"
	"ppd/internal/pdg"
	"ppd/internal/progdb"
	"ppd/internal/sched"
	"ppd/internal/sem"
	"ppd/internal/source"
	"ppd/internal/token"
)

// Artifacts is everything the preparatory phase produces. An artifact
// loaded from the persistent cache starts shallow — File, Prog, and the
// persisted vet result only; Info/PDG/Plan/DB are nil until Hydrate —
// because the execution phase needs nothing but the bytecode, and the
// semantic layers are cheap to rebuild on the first debugging-phase query.
// Facts stays nil on such an artifact even after Hydrate: the debugging
// phase reads the static PDG and the program database (§3.2.1), never the
// abstract-interpretation facts, which live on in the fused bytecode's
// certificates and the persisted vet result.
type Artifacts struct {
	File *source.File
	Prog *bytecode.Program
	Info *sem.Info
	PDG  *pdg.Program
	Plan *eblock.Plan
	DB   *progdb.DB

	// Facts is the abstract-interpretation result (analysis/absint),
	// computed once per full pipeline run and shared by the fusion pass
	// (safety certificates) and the vet passes. Always nil on cache-loaded
	// artifacts, hydrated or not: their certificates are already in Prog
	// and their vet result is persisted. A vet without a persisted result
	// recomputes the facts on demand (analysis.AnalyzeWithFacts with nil).
	Facts *absint.Facts

	cfg    eblock.Config    // for Hydrate
	preVet *analysis.Result // vet result restored from the cache

	hydrateOnce sync.Once
	hydrateErr  error
}

// Hydrate ensures the semantic layers (Info, PDG, Plan, DB) are present,
// rebuilding them from source for cache-loaded artifacts. It is a no-op on
// artifacts from a full compile. The rebuild runs parse through progdb
// only — abstract interpretation, codegen, and fusion are skipped since
// Prog came from the cache with its certificates applied — and seeds the
// database's vet slot with the persisted result so no analysis pass reruns.
func (a *Artifacts) Hydrate() error {
	a.hydrateOnce.Do(func() {
		if a.DB != nil {
			return
		}
		full, err := compilePipeline(a.File, a.cfg, pipelineOpts{
			crossWriteFilter: true,
			pool:             poolFor(0, nil),
			skipCodegen:      true,
		})
		if err != nil {
			a.hydrateErr = err
			return
		}
		a.Info, a.PDG, a.Plan, a.DB = full.Info, full.PDG, full.Plan, full.DB
		if a.preVet != nil {
			pre := a.preVet
			a.DB.EnsureVet(func() *analysis.Result { return pre })
		}
	})
	return a.hydrateErr
}

// Hydrated reports whether the semantic layers are available.
func (a *Artifacts) Hydrated() bool { return a.DB != nil }

// Opts selects how Compile runs the preparatory phase. The zero value is
// the default pipeline: the zero e-block config, the shared GOMAXPROCS
// pool, no observation, no persistent cache, the default fusion table.
type Opts struct {
	// Config tunes e-block construction (§5.4).
	Config eblock.Config
	// Workers is the per-function fan-out width: 1 compiles sequentially
	// (the byte-identity baseline of the parallel pipeline), <= 0 uses the
	// shared GOMAXPROCS pool, anything else gets a dedicated pool.
	Workers int
	// Sink receives one "compile.<pass>" scope per pipeline pass, the
	// artifact-size counters, and the compile.cache.{hits,misses,bytes}
	// counters. nil disables observation.
	Sink *obs.Sink
	// CacheDir enables the persistent artifact cache (empty disables it).
	// The key is a content hash over the source bytes, the e-block config,
	// the fusion table's fingerprint, and the codec version, so any change
	// to an input or the format misses cleanly. On a hit the whole pipeline
	// is skipped and a shallow artifact (bytecode + persisted vet) is
	// returned — call Hydrate before debugging-phase queries. On a miss the
	// program is compiled, vetted, and stored.
	CacheDir string
	// Fusion is the superinstruction table of the peephole pass that runs
	// after codegen; nil means bytecode.DefaultFusionTable().
	Fusion *bytecode.FusionTable
	// NoFusion disables the fusion pass: the unfused baseline of the
	// dispatch experiments. Fused and unfused artifacts never share a
	// cache entry.
	NoFusion bool
}

// Compile runs parse → check → static analysis → e-block planning → code
// generation → fusion, through the persistent cache when o.CacheDir is
// set. On front-end errors it returns the error list's error. The
// per-function passes fan out across the configured worker pool; the
// output is byte-identical at every worker count.
func Compile(file *source.File, o Opts) (*Artifacts, error) {
	po := pipelineOpts{
		crossWriteFilter: true,
		sink:             o.Sink,
		pool:             poolFor(o.Workers, o.Sink),
		fusion:           o.Fusion,
		noFusion:         o.NoFusion,
	}
	if o.CacheDir == "" {
		return compilePipeline(file, o.Config, po)
	}
	// The key carries the fingerprint of the table the pipeline really
	// fuses with: the default one when Fusion is nil, none under NoFusion.
	tab := o.Fusion
	switch {
	case o.NoFusion:
		tab = nil
	case tab == nil:
		tab = bytecode.DefaultFusionTable()
	}
	cfg, sink := o.Config, o.Sink
	cache := &progdb.Cache{Dir: o.CacheDir}
	key := progdb.CacheKey(file.Name, file.Content, cfg, tab.Fingerprint(), absint.Fingerprint)
	if cp, size, err := cache.Load(key); err == nil && cp != nil {
		if sink != nil {
			sink.Counter("compile.cache.hits").Add(1)
			sink.Counter("compile.cache.bytes").Add(int64(size))
		}
		return &Artifacts{File: file, Prog: cp.Prog, cfg: cfg, preVet: cp.Vet}, nil
	}
	art, err := compilePipeline(file, cfg, po)
	if err != nil {
		return nil, err
	}
	// Vet eagerly so the cached entry always carries the analysis result:
	// a warm run must answer vet queries without rerunning any pass.
	vet := art.Vet(sink)
	size, err := cache.Store(key, &progdb.CachedProgram{
		SourceName: file.Name,
		Source:     file.Content,
		Config:     cfg,
		Prog:       art.Prog,
		Vet:        vet,
	})
	if err != nil {
		return nil, err
	}
	if sink != nil {
		sink.Counter("compile.cache.misses").Add(1)
		sink.Counter("compile.cache.bytes").Add(int64(size))
	}
	return art, nil
}

// poolFor maps a workers knob to a sched pool: 1 means sequential (nil
// pool), <= 0 the shared GOMAXPROCS pool (or an observed pool of the same
// width when a sink wants sched.* metrics), else a dedicated pool.
func poolFor(workers int, sink *obs.Sink) *sched.Pool {
	switch {
	case workers == 1:
		return nil
	case workers <= 0 && sink == nil:
		return sched.Shared()
	default:
		return sched.NewObs(workers, sink)
	}
}

// Vet runs the static-analysis passes over the compiled program and
// persists the result in the program database: repeated calls (from the
// CLI, the controller's detector pruning, or the public API) share one
// computation. sink receives the per-pass "analysis.<pass>" scopes on the
// run that actually computes.
func (a *Artifacts) Vet(sink *obs.Sink) *analysis.Result {
	if a.preVet != nil {
		// Cache-loaded artifacts carry the persisted result; no pass reruns
		// even before hydration.
		return a.preVet
	}
	return a.DB.EnsureVet(func() *analysis.Result {
		return analysis.AnalyzeWithFacts(a.PDG, a.Prog, sink, a.Facts)
	})
}

// compileUnfiltered compiles with the literal-§5.5 shared prelogs (no
// cross-write filtering) — the baseline of the shared-prelog ablation.
func compileUnfiltered(file *source.File, cfg eblock.Config) (*Artifacts, error) {
	return compilePipeline(file, cfg, pipelineOpts{pool: poolFor(0, nil)})
}

// CompileBare compiles without any instrumentation markers: no prelog,
// postlog, or shared-prelog instructions are emitted. This is the paper's
// true uninstrumented baseline for the §7 overhead measurement (E1) —
// comparing against ModeRun over instrumented code would hide the marker
// dispatch cost.
func CompileBare(file *source.File) (*Artifacts, error) {
	return compilePipeline(file, eblock.Config{}, pipelineOpts{crossWriteFilter: true, noInstr: true, pool: poolFor(0, nil)})
}

// pipelineOpts selects the pipeline variant; the passes themselves are
// identical across Compile / compileUnfiltered / CompileBare.
type pipelineOpts struct {
	crossWriteFilter bool
	noInstr          bool
	skipCodegen      bool // Hydrate: bytecode (and its certificates) already loaded from the cache
	sink             *obs.Sink
	pool             *sched.Pool // nil: run every pass sequentially

	// fusion selects the superinstruction table for the peephole pass that
	// runs after codegen; nil means bytecode.DefaultFusionTable() unless
	// noFusion is set (Opts.NoFusion: the unfused baseline of the dispatch
	// experiments).
	fusion   *bytecode.FusionTable
	noFusion bool
}

// compilePipeline is the preparatory phase's pass DAG. The global stages —
// parsing, checking, the interprocedural MOD/REF fixpoint, e-block
// numbering — run sequentially in dependency order; the per-function
// stages (direct dataflow inside interproc, PDG construction, database
// indexing, code generation) fan out across po.pool with deterministic
// index-order merges, so the artifacts are byte-identical to a nil-pool
// run.
func compilePipeline(file *source.File, cfg eblock.Config, po pipelineOpts) (*Artifacts, error) {
	total := po.sink.Scope("compile.total")
	defer total.End()

	pass := func(name string) obs.Scope { return po.sink.Scope("compile." + name) }

	sc := pass("parse")
	errs := &source.ErrorList{}
	prog := parser.Parse(file, errs)
	sc.End()

	sc = pass("check")
	info := sem.Check(prog, errs)
	sc.End()
	if err := errs.Err(); err != nil {
		return nil, err
	}

	sc = pass("interproc")
	inter := interproc.AnalyzeWith(info, po.pool)
	sc.End()

	sc = pass("pdg")
	p := pdg.BuildFromInter(inter, po.crossWriteFilter, po.pool)
	sc.End()

	sc = pass("eblock")
	plan := eblock.Build(p, cfg)
	sc.End()

	sc = pass("progdb")
	db := progdb.BuildWith(p, plan, po.pool)
	sc.End()

	if po.skipCodegen {
		return &Artifacts{File: file, Info: info, PDG: p, Plan: plan, DB: db, cfg: cfg}, nil
	}

	// Abstract interpretation over the finished PDG: the value-range and
	// lockset facts feed both the fusion pass below (safety certificates
	// for trapping constituents) and the vet passes (Artifacts.Vet).
	sc = pass("absint")
	facts := absint.Analyze(p)
	sc.End()

	sc = pass("codegen")
	c := &compiler{
		info:    info,
		pdg:     p,
		plan:    plan,
		noInstr: po.noInstr,
		out: &bytecode.Program{
			FuncIdx: make(map[string]int),
			MainIdx: -1,
		},
	}
	err := c.run(po.pool)
	sc.End()
	if err != nil {
		return nil, err
	}

	// Superinstruction fusion: a cheap sequential peephole over the merged
	// code that fills each function's Super side table (bytecode.Fuse). It
	// runs last so it sees the final instruction layout; Code itself is
	// never rewritten, so every PC-based artifact above stays valid.
	if !po.noFusion {
		sc = pass("fuse")
		tab := po.fusion
		if tab == nil {
			tab = bytecode.DefaultFusionTable()
		}
		bytecode.FuseCert(c.out, tab, &bytecode.SafetyCert{Div: facts.DivSafe, Idx: facts.IdxSafe})
		sc.End()
	}

	art := &Artifacts{File: file, Prog: c.out, Info: info, PDG: p, Plan: plan, DB: db, Facts: facts, cfg: cfg}
	foldArtifactSizes(po.sink, art)
	return art, nil
}

// foldArtifactSizes publishes the preparatory phase's static sizes — the
// quantities E4/E6 reason about — as counters.
func foldArtifactSizes(sink *obs.Sink, art *Artifacts) {
	if sink == nil {
		return
	}
	sink.Counter("compile.funcs").Add(int64(len(art.Prog.Funcs)))
	sink.Counter("compile.globals").Add(int64(len(art.Prog.Globals)))
	sink.Counter("compile.instrs").Add(int64(art.Prog.NumInstrs()))
	sink.Counter("compile.superinstrs").Add(int64(art.Prog.NumSuper()))
	sink.Counter("fusion.windows.widened").Add(int64(art.Prog.WidenedSuper))
	sink.Counter("compile.eblocks").Add(int64(len(art.Plan.Blocks)))
	sink.Counter("compile.eblocks.inlined").Add(int64(len(art.Plan.Inlined)))
	var units, edges, deps, sites int
	for _, f := range art.PDG.Funcs {
		units += len(f.Simple.Units)
		edges += len(f.Simple.Edges)
		deps += len(f.DataDeps)
	}
	for _, f := range art.Prog.Funcs {
		sites += len(f.Units)
	}
	sink.Counter("compile.pdg.units").Add(int64(units))
	sink.Counter("compile.pdg.edges").Add(int64(edges))
	sink.Counter("compile.pdg.datadeps").Add(int64(deps))
	sink.Counter("compile.shprelog.sites").Add(int64(sites))
}

type compiler struct {
	info    *sem.Info
	pdg     *pdg.Program
	plan    *eblock.Plan
	out     *bytecode.Program
	noInstr bool // CompileBare: emit no instrumentation markers

	strIdx map[string]int
}

func (c *compiler) run(pool *sched.Pool) error {
	c.strIdx = make(map[string]int)

	// Globals.
	for _, g := range c.info.Globals {
		def := bytecode.GlobalDef{Name: g.Name}
		switch g.Kind {
		case sem.SymGlobal:
			def.Kind = bytecode.GlobalVar
			def.Shared = true
			if g.Type.Kind == ast.TypeArray {
				def.IsArray = true
				def.Len = g.Type.Len
			}
		case sem.SymSem:
			def.Kind = bytecode.GlobalSem
		case sem.SymChan:
			def.Kind = bytecode.GlobalChan
			def.Len = g.Type.Len
		}
		// Constant initializer, if any.
		for _, gd := range c.info.Prog.Globals {
			if gd.Name.Name == g.Name && gd.Init != nil {
				if v, ok := constEval(gd.Init); ok {
					def.Init = v
					def.HasInit = true
				} else {
					errs := &source.ErrorList{}
					errs.Errorf(c.info.Prog.File.Position(gd.Init.Pos()),
						"global initializer for %q must be a constant expression", g.Name)
					return errs.Err()
				}
			}
		}
		c.out.Globals = append(c.out.Globals, def)
	}

	// Function indices first (calls may be forward).
	for i, fn := range c.info.FuncList {
		f := &bytecode.Func{
			Idx:        i,
			Name:       fn.Name(),
			NumParams:  len(fn.Params),
			NumSlots:   fn.NumSlots,
			HasResult:  fn.Decl.Result.Kind != ast.TypeVoid,
			BlockID:    -1,
			ArraySlots: map[int]int{},
		}
		for _, prm := range fn.Params {
			f.ParamSlots = append(f.ParamSlots, prm.Slot)
		}
		for _, l := range fn.Locals {
			if l.Type.Kind == ast.TypeArray {
				f.ArraySlots[l.Slot] = l.Type.Len
			}
		}
		c.out.Funcs = append(c.out.Funcs, f)
		c.out.FuncIdx[fn.Name()] = i
		if fn.Name() == "main" {
			c.out.MainIdx = i
		}
	}

	// E-block metadata table.
	for _, b := range c.plan.Blocks {
		meta := &bytecode.BlockMeta{
			ID:      int(b.ID),
			FuncIdx: c.out.FuncIdx[b.Fn.Name()],
		}
		space := c.pdg.Funcs[b.Fn.Name()].Space
		split := func(set interface{ ForEach(func(int)) }, locals, globals *[]int) {
			set.ForEach(func(i int) {
				if space.IsGlobal(i) {
					sym := space.Symbol(i)
					if sym.Kind == sem.SymGlobal { // only data globals logged
						*globals = append(*globals, space.GlobalID(i))
					}
				} else {
					*locals = append(*locals, i)
				}
			})
		}
		switch b.Kind {
		case eblock.FuncBlock:
			meta.Kind = bytecode.BlockFunc
			split(b.Used, &meta.UsedLocals, &meta.UsedGlobals)
			var dl []int
			split(b.Defined, &dl, &meta.DefinedGlobals)
			// Function blocks never log defined locals (frame dies at exit).
			meta.HasRet = b.Fn.Decl.Result.Kind != ast.TypeVoid
			meta.PrelogPC = 0
			meta.PostPC = -1
		case eblock.LoopBlock:
			meta.Kind = bytecode.BlockLoop
			meta.LoopStmt = b.Loop.ID()
			split(b.Used, &meta.UsedLocals, &meta.UsedGlobals)
			split(b.Defined, &meta.DefinedLocals, &meta.DefinedGlobals)
		}
		c.out.Blocks = append(c.out.Blocks, meta)
	}

	// Code generation: each function body lowers independently. String
	// literals intern into a per-function table first (OpPrintStr operands
	// are local indices during this stage); the sequential merge below
	// re-interns them into the program table in function order, which is
	// exactly the order the sequential pipeline would have encountered them
	// at emit time — so the program's string table and every rewritten
	// operand are byte-identical to a sequential compile.
	locals := make([]localStrings, len(c.info.FuncList))
	genFunc := func(i int) {
		fc := &fnCompiler{
			c:    c,
			fn:   c.info.FuncList[i],
			f:    c.out.Funcs[i],
			strs: &locals[i],
		}
		fc.compile()
	}
	if pool == nil {
		for i := range c.info.FuncList {
			genFunc(i)
		}
	} else {
		pool.ForEach(len(c.info.FuncList), genFunc)
	}

	// Deterministic string-table merge + operand rewrite.
	for i, f := range c.out.Funcs {
		ls := &locals[i]
		if len(ls.strs) == 0 {
			continue
		}
		remap := make([]int, len(ls.strs))
		for j, s := range ls.strs {
			remap[j] = c.internString(s)
		}
		for pc := range f.Code {
			if f.Code[pc].Op == bytecode.OpPrintStr {
				f.Code[pc].A = remap[f.Code[pc].A]
			}
		}
	}

	// Per-function prelog-PC index: emulation resolves an interval's start
	// PC with a map hit instead of scanning the code for its OpPrelog.
	for _, f := range c.out.Funcs {
		f.BuildPrelogIndex()
	}
	return nil
}

// localStrings is one function's private string-literal table, merged into
// the program table after parallel code generation.
type localStrings struct {
	strs []string
	idx  map[string]int
}

func (ls *localStrings) intern(s string) int {
	if i, ok := ls.idx[s]; ok {
		return i
	}
	if ls.idx == nil {
		ls.idx = make(map[string]int)
	}
	i := len(ls.strs)
	ls.strs = append(ls.strs, s)
	ls.idx[s] = i
	return i
}

func (c *compiler) internString(s string) int {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := len(c.out.Strings)
	c.out.Strings = append(c.out.Strings, s)
	c.strIdx[s] = i
	return i
}

// constEval evaluates compile-time constant expressions (for global
// initializers).
func constEval(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.BoolLit:
		if e.Value {
			return 1, true
		}
		return 0, true
	case *ast.ParenExpr:
		return constEval(e.X)
	case *ast.UnaryExpr:
		v, ok := constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.SUB:
			return -v, true
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *ast.BinaryExpr:
		x, ok1 := constEval(e.X)
		y, ok2 := constEval(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case token.ADD:
			return x + y, true
		case token.SUB:
			return x - y, true
		case token.MUL:
			return x * y, true
		case token.QUO:
			if y != 0 {
				return x / y, true
			}
		case token.REM:
			if y != 0 {
				return x % y, true
			}
		}
	}
	return 0, false
}

// fnCompiler generates code for one function. It writes only to f, strs,
// and the BlockMeta entries of this function's own loops, so distinct
// functions compile concurrently.
type fnCompiler struct {
	c    *compiler
	fn   *sem.FuncInfo
	f    *bytecode.Func
	strs *localStrings

	curStmt ast.StmtID

	// loop stack
	loops []*loopCtx

	// unit table: StmtID -> index into f.Units (built on demand)
	unitIdx map[ast.StmtID]int
}

type loopCtx struct {
	contTarget  int   // pc to jump to on continue (head or post)
	breakPatch  []int // OpJmp indices to patch to the exit
	contPatch   []int // OpJmp indices to patch to contTarget (when unknown yet)
	postlogInst int   // pc of the loop's OpPostlog, or -1
}

func (fc *fnCompiler) emit(op bytecode.Op, a, b int) int {
	if fc.c.noInstr {
		switch op {
		case bytecode.OpPrelog, bytecode.OpPostlog, bytecode.OpShPrelog:
			// CompileBare: markers suppressed. Return the index the marker
			// would have had; callers only use it for jump patching, which
			// never targets markers.
			return len(fc.f.Code) - 1
		}
	}
	fc.f.Code = append(fc.f.Code, bytecode.Instr{Op: op, A: a, B: b, Stmt: fc.curStmt})
	return len(fc.f.Code) - 1
}

func (fc *fnCompiler) patch(idx, target int) { fc.f.Code[idx].A = target }

func (fc *fnCompiler) here() int { return len(fc.f.Code) }

func (fc *fnCompiler) compile() {
	blk := fc.c.plan.ByFunc[fc.fn.Name()]
	fc.unitIdx = make(map[ast.StmtID]int)

	if blk != nil {
		fc.f.BlockID = int(blk.ID)
		fc.emit(bytecode.OpPrelog, int(blk.ID), 0)
	}
	// The entry synchronization unit needs no shared prelog of its own: the
	// block prelog captures the same values at the same moment, and for
	// inlined functions the caller's prelog inherits them (§5.4). Units
	// starting at sync operations and call returns get markers below.

	fc.block(fc.fn.Decl.Body)

	// Implicit return at fall-off.
	fc.curStmt = ast.NoStmt
	if fc.f.HasResult {
		fc.emit(bytecode.OpConst, 0, 0)
		if blk != nil {
			fc.emit(bytecode.OpPostlog, int(blk.ID), 1)
		}
		fc.emit(bytecode.OpRetValue, 0, 0)
	} else {
		if blk != nil {
			fc.emit(bytecode.OpPostlog, int(blk.ID), 0)
		}
		fc.emit(bytecode.OpRet, 0, 0)
	}
}

// emitShPrelog interns the unit's read set and emits the marker.
func (fc *fnCompiler) emitShPrelog(stmt ast.StmtID, u *pdg.SyncUnit) {
	idx, ok := fc.unitIdx[stmt]
	if !ok {
		idx = len(fc.f.Units)
		fc.f.Units = append(fc.f.Units, bytecode.UnitLog{
			Stmt:    stmt,
			Globals: u.CrossReads.Elems(),
		})
		fc.unitIdx[stmt] = idx
	}
	saved := fc.curStmt
	fc.curStmt = stmt
	fc.emit(bytecode.OpShPrelog, idx, 0)
	fc.curStmt = saved
}

// unitFor looks up the sync unit starting at statement s, returning nil for
// units with no shared reads (paper §5.5: no log entry then).
func (fc *fnCompiler) unitFor(s ast.Stmt) *pdg.SyncUnit {
	fpdg := fc.c.pdg.Funcs[fc.fn.Name()]
	node := fpdg.CFG.NodeFor(s.ID())
	if node < 0 {
		return nil
	}
	u := fpdg.Simple.UnitAt(node)
	if u == nil || u.CrossReads.IsEmpty() {
		return nil
	}
	return u
}

func (fc *fnCompiler) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		fc.stmt(s)
	}
}

func (fc *fnCompiler) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	fc.curStmt = s.ID()
	switch s := s.(type) {
	case *ast.BlockStmt:
		fc.block(s)

	case *ast.VarDeclStmt:
		sym := fc.c.info.Uses[s.Name]
		if s.Type.Kind == ast.TypeArray {
			// Arrays are allocated (zeroed) at frame setup; the declaration
			// itself has no runtime effect.
			return
		}
		if s.Init != nil {
			fc.expr(s.Init)
		} else {
			fc.emit(bytecode.OpConst, 0, 0)
		}
		fc.emit(bytecode.OpStoreLocal, sym.Slot, 0)
		fc.maybeUnitAfterCalls(s)

	case *ast.AssignStmt:
		sym := fc.c.info.Uses[s.LHS]
		if s.Index != nil {
			fc.expr(s.Index)
			fc.expr(s.RHS)
			if sym.GlobalID >= 0 {
				fc.emit(bytecode.OpStoreIndexedG, sym.GlobalID, 0)
			} else {
				fc.emit(bytecode.OpStoreIndexedL, sym.Slot, 0)
			}
		} else {
			fc.expr(s.RHS)
			if sym.GlobalID >= 0 {
				fc.emit(bytecode.OpStoreGlobal, sym.GlobalID, 0)
			} else {
				fc.emit(bytecode.OpStoreLocal, sym.Slot, 0)
			}
		}
		fc.maybeUnitAfterCalls(s)

	case *ast.IfStmt:
		fc.expr(s.Cond)
		jf := fc.emit(bytecode.OpJmpFalse, -1, 1)
		fc.block(s.Then)
		if s.Else != nil {
			jend := fc.emit(bytecode.OpJmp, -1, 0)
			fc.patch(jf, fc.here())
			fc.stmt(s.Else)
			fc.patch(jend, fc.here())
		} else {
			fc.patch(jf, fc.here())
		}

	case *ast.WhileStmt:
		fc.compileLoop(s, nil, s.Cond, nil, s.Body)

	case *ast.ForStmt:
		fc.compileLoop(s, s.Init, s.Cond, s.Post, s.Body)

	case *ast.ReturnStmt:
		blk := fc.c.plan.ByFunc[fc.fn.Name()]
		if s.Result != nil {
			fc.expr(s.Result)
			if blk != nil {
				fc.emit(bytecode.OpPostlog, int(blk.ID), 1)
			}
			fc.emit(bytecode.OpRetValue, 0, 0)
		} else {
			if blk != nil {
				fc.emit(bytecode.OpPostlog, int(blk.ID), 0)
			}
			fc.emit(bytecode.OpRet, 0, 0)
		}

	case *ast.BreakStmt:
		l := fc.loops[len(fc.loops)-1]
		l.breakPatch = append(l.breakPatch, fc.emit(bytecode.OpJmp, -1, 0))

	case *ast.ContinueStmt:
		l := fc.loops[len(fc.loops)-1]
		if l.contTarget >= 0 {
			fc.emit(bytecode.OpJmp, l.contTarget, 0)
		} else {
			l.contPatch = append(l.contPatch, fc.emit(bytecode.OpJmp, -1, 0))
		}

	case *ast.SpawnStmt:
		for _, a := range s.Call.Args {
			fc.expr(a)
		}
		fidx := fc.c.out.FuncIdx[s.Call.Fun.Name]
		fc.emit(bytecode.OpSpawn, fidx, len(s.Call.Args))
		if u := fc.unitFor(s); u != nil {
			fc.emitShPrelog(s.ID(), u)
		}

	case *ast.SemStmt:
		sym := fc.c.info.Uses[s.Sem]
		if s.Op == token.ACQUIRE {
			fc.emit(bytecode.OpSemP, sym.GlobalID, 0)
		} else {
			fc.emit(bytecode.OpSemV, sym.GlobalID, 0)
		}
		if u := fc.unitFor(s); u != nil {
			fc.emitShPrelog(s.ID(), u)
		}

	case *ast.SendStmt:
		fc.expr(s.Value)
		sym := fc.c.info.Uses[s.Chan]
		fc.emit(bytecode.OpSend, sym.GlobalID, 0)
		if u := fc.unitFor(s); u != nil {
			fc.emitShPrelog(s.ID(), u)
		}

	case *ast.ExprStmt:
		switch x := s.X.(type) {
		case *ast.CallExpr:
			fc.expr(x)
			// Discard the result if any.
			if fc.c.out.Funcs[fc.c.out.FuncIdx[x.Fun.Name]].HasResult {
				fc.emit(bytecode.OpPop, 0, 0)
			}
		case *ast.RecvExpr:
			fc.expr(x)
			fc.emit(bytecode.OpPop, 0, 0)
		}
		fc.maybeUnitAfterCalls(s)

	case *ast.PrintStmt:
		for _, a := range s.Args {
			if str, ok := a.(*ast.StringLit); ok {
				fc.emit(bytecode.OpPrintStr, fc.strs.intern(str.Value), 0)
				continue
			}
			fc.expr(a)
			fc.emit(bytecode.OpPrintVal, 0, 0)
		}
		fc.emit(bytecode.OpPrintNl, 0, 0)
		fc.maybeUnitAfterCalls(s)
	}
}

// maybeUnitAfterCalls emits the shared prelog for statements that are unit
// starts because they contain calls or a recv (the unit covers the code
// *after* the statement completes).
func (fc *fnCompiler) maybeUnitAfterCalls(s ast.Stmt) {
	fpdg := fc.c.pdg.Funcs[fc.fn.Name()]
	node := fpdg.CFG.NodeFor(s.ID())
	if node < 0 {
		return
	}
	kind, ok := fpdg.Simple.Kinds[node]
	if !ok || kind.Branching() || kind == pdg.SimpleEntry || kind == pdg.SimpleExit {
		return
	}
	if kind == pdg.SimpleSync {
		return // handled at the sync-op emit sites
	}
	if u := fc.unitFor(s); u != nil {
		fc.emitShPrelog(s.ID(), u)
	}
}

// compileLoop generates while/for loops, with optional loop e-block
// instrumentation (§5.4).
func (fc *fnCompiler) compileLoop(loop ast.Stmt, init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		fc.stmt(init)
	}
	fc.curStmt = loop.ID()

	blk := fc.c.plan.ByLoop[loop.ID()]
	if blk != nil {
		fc.emit(bytecode.OpPrelog, int(blk.ID), 0)
	}

	head := fc.here()
	if cond != nil {
		fc.curStmt = loop.ID()
		fc.expr(cond)
	} else {
		fc.emit(bytecode.OpConst, 1, 0)
	}
	jf := fc.emit(bytecode.OpJmpFalse, -1, 1)

	l := &loopCtx{contTarget: -1, postlogInst: -1}
	fc.loops = append(fc.loops, l)
	if post == nil {
		l.contTarget = head
	}

	fc.block(body)

	if post != nil {
		postPC := fc.here()
		fc.stmt(post)
		for _, idx := range l.contPatch {
			fc.patch(idx, postPC)
		}
	}
	fc.curStmt = loop.ID()
	fc.emit(bytecode.OpJmp, head, 0)

	exit := fc.here()
	fc.patch(jf, exit)
	for _, idx := range l.breakPatch {
		fc.patch(idx, exit)
	}
	if blk != nil {
		fc.curStmt = loop.ID()
		pc := fc.emit(bytecode.OpPostlog, int(blk.ID), 0)
		l.postlogInst = pc
		// Record the substitution jump target on the block metadata.
		fc.c.out.Blocks[blk.ID].PrelogPC = headPrelogPC(fc.f, int(blk.ID))
		fc.c.out.Blocks[blk.ID].PostPC = pc
	}
	fc.loops = fc.loops[:len(fc.loops)-1]
}

// headPrelogPC finds the OpPrelog instruction for a block id in f.
func headPrelogPC(f *bytecode.Func, blockID int) int {
	for pc, in := range f.Code {
		if in.Op == bytecode.OpPrelog && in.A == blockID {
			return pc
		}
	}
	return -1
}

// ------------------------------------------------------------ expressions

func (fc *fnCompiler) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit:
		fc.emit(bytecode.OpConst, int(e.Value), 0)
	case *ast.BoolLit:
		v := 0
		if e.Value {
			v = 1
		}
		fc.emit(bytecode.OpConst, v, 0)
	case *ast.StringLit:
		// Only reachable through malformed programs; checker rejects
		// strings outside print.
		fc.emit(bytecode.OpConst, 0, 0)
	case *ast.Ident:
		sym := fc.c.info.Uses[e]
		if sym.GlobalID >= 0 {
			fc.emit(bytecode.OpLoadGlobal, sym.GlobalID, 0)
		} else {
			fc.emit(bytecode.OpLoadLocal, sym.Slot, 0)
		}
	case *ast.IndexExpr:
		fc.expr(e.Index)
		sym := fc.c.info.Uses[e.X]
		if sym.GlobalID >= 0 {
			fc.emit(bytecode.OpLoadIndexedG, sym.GlobalID, 0)
		} else {
			fc.emit(bytecode.OpLoadIndexedL, sym.Slot, 0)
		}
	case *ast.ParenExpr:
		fc.expr(e.X)
	case *ast.UnaryExpr:
		fc.expr(e.X)
		if e.Op == token.SUB {
			fc.emit(bytecode.OpNeg, 0, 0)
		} else {
			fc.emit(bytecode.OpNot, 0, 0)
		}
	case *ast.BinaryExpr:
		fc.binary(e)
	case *ast.CallExpr:
		for _, a := range e.Args {
			fc.expr(a)
		}
		fc.emit(bytecode.OpCall, fc.c.out.FuncIdx[e.Fun.Name], len(e.Args))
	case *ast.RecvExpr:
		sym := fc.c.info.Uses[e.Chan]
		fc.emit(bytecode.OpRecv, sym.GlobalID, 0)
	}
}

func (fc *fnCompiler) binary(e *ast.BinaryExpr) {
	switch e.Op {
	case token.LAND:
		// a && b  =>  a ? b : 0, short-circuit.
		fc.expr(e.X)
		jf := fc.emit(bytecode.OpJmpFalse, -1, 0)
		fc.expr(e.Y)
		jend := fc.emit(bytecode.OpJmp, -1, 0)
		fc.patch(jf, fc.here())
		fc.emit(bytecode.OpConst, 0, 0)
		fc.patch(jend, fc.here())
		return
	case token.LOR:
		fc.expr(e.X)
		jt := fc.emit(bytecode.OpJmpTrue, -1, 0)
		fc.expr(e.Y)
		jend := fc.emit(bytecode.OpJmp, -1, 0)
		fc.patch(jt, fc.here())
		fc.emit(bytecode.OpConst, 1, 0)
		fc.patch(jend, fc.here())
		return
	}
	fc.expr(e.X)
	fc.expr(e.Y)
	var op bytecode.Op
	switch e.Op {
	case token.ADD:
		op = bytecode.OpAdd
	case token.SUB:
		op = bytecode.OpSub
	case token.MUL:
		op = bytecode.OpMul
	case token.QUO:
		op = bytecode.OpDiv
	case token.REM:
		op = bytecode.OpMod
	case token.EQL:
		op = bytecode.OpEq
	case token.NEQ:
		op = bytecode.OpNe
	case token.LSS:
		op = bytecode.OpLt
	case token.LEQ:
		op = bytecode.OpLe
	case token.GTR:
		op = bytecode.OpGt
	case token.GEQ:
		op = bytecode.OpGe
	default:
		op = bytecode.OpNop
	}
	fc.emit(op, 0, 0)
}
