// Package debugger provides PPD's interactive debugging-phase front end: a
// textual REPL over the Controller. It is the stand-in for the graphical
// interface the paper defers to future work (§7) — the mechanism underneath
// (incremental tracing, flowback navigation, race queries, what-if
// restarts) is the paper's.
package debugger

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/controller"
	"ppd/internal/dynpdg"
	"ppd/internal/logging"
	"ppd/internal/replay"
)

// Session is one interactive debugging session.
type Session struct {
	C *controller.Controller

	pid      int
	interval int // current prelog record index
	graph    *dynpdg.Graph
	focus    dynpdg.NodeID
}

// New starts a session focused on the halted process (or process 0).
func New(c *controller.Controller) (*Session, error) {
	s := &Session{C: c}
	if c.Failure != nil {
		s.pid = c.Failure.PID
	}
	if err := s.refocus(s.pid); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Session) refocus(pid int) error {
	g, idx, err := s.C.CurrentGraph(pid)
	if err != nil {
		return err
	}
	s.pid = pid
	s.interval = idx
	s.graph = g
	if n := s.C.FocusNode(g, pid); n != nil {
		s.focus = n.ID
	}
	return nil
}

// Run reads commands from in and writes responses to out until quit/EOF.
func (s *Session) Run(in io.Reader, out io.Writer) error {
	fmt.Fprint(out, s.C.Summary())
	fmt.Fprintf(out, "focused on process %d; type 'help' for commands\n", s.pid)
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "(ppd) ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		if cmd == "quit" || cmd == "q" || cmd == "exit" {
			return nil
		}
		s.dispatch(out, cmd, args)
	}
}

// Exec runs a single command (used by tests and scripting).
func (s *Session) Exec(out io.Writer, line string) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return
	}
	s.dispatch(out, fields[0], fields[1:])
}

func (s *Session) dispatch(out io.Writer, cmd string, args []string) {
	switch cmd {
	case "help", "h":
		s.cmdHelp(out)
	case "summary":
		fmt.Fprint(out, s.C.Summary())
	case "procs":
		s.cmdProcs(out)
	case "where":
		s.cmdWhere(out)
	case "focus":
		s.cmdFocus(out, args)
	case "graph", "g":
		s.cmdGraph(out, args)
	case "flowback", "fb":
		s.cmdFlowback(out, args)
	case "node", "n":
		s.cmdNode(out, args)
	case "intervals":
		s.cmdIntervals(out, args)
	case "emulate":
		s.cmdEmulate(out, args)
	case "stmt":
		s.cmdStmt(out, args)
	case "defs":
		s.cmdDefs(out, args)
	case "races":
		fmt.Fprint(out, s.C.RaceReport())
	case "deadlock":
		fmt.Fprint(out, s.C.DeadlockReport())
	case "resolve":
		s.cmdResolve(out, args)
	case "whatif":
		s.cmdWhatIf(out, args)
	case "log":
		s.cmdLog(out, args)
	case "dot":
		fmt.Fprint(out, s.graph.DOT(len(args) > 0 && args[0] == "flow"))
	default:
		fmt.Fprintf(out, "unknown command %q; try 'help'\n", cmd)
	}
}

func (s *Session) cmdHelp(out io.Writer) {
	fmt.Fprint(out, `commands:
  summary              how the execution ended
  procs                list processes
  where                how and where each process stopped
  focus <pid>          switch to another process
  graph [depth]        show the dependence fragment at the focus node
  flowback <node> [d]  walk dependences backward from a node
  node <id>            node details with all incident edges
  intervals [func]     list e-block intervals of the focused process
  emulate <recidx>     switch focus to another interval (incremental tracing)
  stmt <id>            statement info from the program database
  defs <name>          statements that may define a variable
  races                run race detection (Def 6.4)
  deadlock             analyze blocked processes (§6)
  resolve <global>     cross-process origin of a shared value (§6.3)
  whatif <var>=<val>   re-run the interval with a changed value (§5.7)
  log [pid]            dump log records
  dot [flow]           emit the current graph as Graphviz DOT
  quit
`)
}

func (s *Session) cmdWhere(out io.Writer) {
	for pid, book := range s.C.Log.Books {
		fmt.Fprintf(out, "P%d: ", pid)
		if book.Len() == 0 {
			fmt.Fprintln(out, "no records")
			continue
		}
		last := book.Records[book.Len()-1]
		if last.Kind != logging.RecExit {
			fmt.Fprintln(out, "still inside an interval (no exit record)")
			continue
		}
		where := ""
		if si := s.C.Art.DB.Stmt(last.Stmt); si != nil {
			where = fmt.Sprintf(" at %s line %d: %s", si.Func, si.Pos.Line, si.Text)
		}
		switch last.Value {
		case logging.ExitClean:
			fmt.Fprintf(out, "exited cleanly\n")
		case logging.ExitBlockedSem:
			fmt.Fprintf(out, "blocked on P(%s)%s\n", s.C.Art.Prog.Globals[last.Obj].Name, where)
		case logging.ExitBlockedSend:
			fmt.Fprintf(out, "blocked sending on %s%s\n", s.C.Art.Prog.Globals[last.Obj].Name, where)
		case logging.ExitBlockedRecv:
			fmt.Fprintf(out, "blocked receiving on %s%s\n", s.C.Art.Prog.Globals[last.Obj].Name, where)
		case logging.ExitBreak:
			fmt.Fprintf(out, "halted at breakpoint%s\n", where)
		case logging.ExitFailed:
			fmt.Fprintf(out, "failed%s\n", where)
		}
	}
}

func (s *Session) cmdProcs(out io.Writer) {
	for pid, book := range s.C.Log.Books {
		n := 0
		for _, r := range book.Records {
			if r.Kind == logging.RecPrelog {
				n++
			}
		}
		marker := " "
		if pid == s.pid {
			marker = "*"
		}
		fail := ""
		if s.C.Failure != nil && s.C.Failure.PID == pid {
			fail = "  [failed]"
		}
		fmt.Fprintf(out, "%s P%d: %d record(s), %d interval(s)%s\n",
			marker, pid, book.Len(), n, fail)
	}
}

func (s *Session) cmdFocus(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: focus <pid>")
		return
	}
	pid, err := strconv.Atoi(args[0])
	if err != nil || pid < 0 || pid >= s.C.NumProcs() {
		fmt.Fprintf(out, "no process %q\n", args[0])
		return
	}
	if err := s.refocus(pid); err != nil {
		fmt.Fprintf(out, "focus: %v\n", err)
		return
	}
	fmt.Fprintf(out, "focused on process %d, interval at record %d\n", s.pid, s.interval)
}

func (s *Session) cmdGraph(out io.Writer, args []string) {
	depth := 3
	if len(args) > 0 {
		if d, err := strconv.Atoi(args[0]); err == nil {
			depth = d
		}
	}
	fmt.Fprint(out, controller.RenderFragment(s.graph, s.focus, depth))
}

func (s *Session) cmdFlowback(out io.Writer, args []string) {
	if len(args) < 1 {
		fmt.Fprintln(out, "usage: flowback <node> [depth]")
		return
	}
	id, err := s.parseNode(args[0])
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	depth := 3
	if len(args) > 1 {
		if d, err := strconv.Atoi(args[1]); err == nil {
			depth = d
		}
	}
	fmt.Fprint(out, controller.RenderFragment(s.graph, id, depth))
}

func (s *Session) parseNode(arg string) (dynpdg.NodeID, error) {
	arg = strings.TrimPrefix(arg, "n")
	id, err := strconv.Atoi(arg)
	if err != nil || id < 0 || id >= len(s.graph.Nodes) {
		return 0, fmt.Errorf("no node %q (graph has %d nodes)", arg, len(s.graph.Nodes))
	}
	return dynpdg.NodeID(id), nil
}

func (s *Session) cmdNode(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: node <id>")
		return
	}
	id, err := s.parseNode(args[0])
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	n := s.graph.Nodes[id]
	fmt.Fprintf(out, "n%d kind=%s label=%s", n.ID, n.Kind, n.Label)
	if n.Stmt != ast.NoStmt {
		if si := s.C.Art.DB.Stmt(n.Stmt); si != nil {
			fmt.Fprintf(out, " at %s line %d: %s", si.Func, si.Pos.Line, si.Text)
		}
	}
	if n.HasValue {
		fmt.Fprintf(out, " value=%d", n.Value)
	}
	fmt.Fprintln(out)
	for _, e := range s.graph.Incoming(id) {
		fmt.Fprintf(out, "  <- %s from n%d [%s]\n", e.Kind, e.From, s.graph.Nodes[e.From].Label)
	}
	for _, e := range s.graph.Outgoing(id) {
		fmt.Fprintf(out, "  -> %s to n%d [%s]\n", e.Kind, e.To, s.graph.Nodes[e.To].Label)
	}
}

func (s *Session) cmdIntervals(out io.Writer, args []string) {
	book := s.C.Log.Books[s.pid]
	for ri, r := range book.Records {
		if r.Kind != logging.RecPrelog {
			continue
		}
		meta := s.C.Art.Prog.Blocks[r.Block]
		fn := s.C.Art.Prog.Funcs[meta.FuncIdx]
		if len(args) > 0 && fn.Name != args[0] {
			continue
		}
		kind := "func"
		if meta.Kind == bytecode.BlockLoop {
			kind = "loop"
		}
		marker := " "
		if ri == s.interval {
			marker = "*"
		}
		fmt.Fprintf(out, "%s record %d: %s e-block of %s\n", marker, ri, kind, fn.Name)
	}
}

func (s *Session) cmdEmulate(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: emulate <record-index>")
		return
	}
	idx, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintf(out, "bad index %q\n", args[0])
		return
	}
	g, err := s.C.Graph(s.pid, idx)
	if err != nil {
		fmt.Fprintf(out, "emulate: %v\n", err)
		return
	}
	s.interval = idx
	s.graph = g
	if n := s.C.FocusNode(g, s.pid); n != nil {
		s.focus = n.ID
	}
	fmt.Fprintf(out, "emulated interval at record %d (%d nodes)\n", idx, len(g.Nodes))
}

func (s *Session) cmdStmt(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: stmt <id>")
		return
	}
	id, err := strconv.Atoi(strings.TrimPrefix(args[0], "s"))
	if err != nil {
		fmt.Fprintf(out, "bad statement id %q\n", args[0])
		return
	}
	si := s.C.Art.DB.Stmt(ast.StmtID(id))
	if si == nil {
		fmt.Fprintf(out, "no statement s%d\n", id)
		return
	}
	fmt.Fprintf(out, "s%d in %s at line %d: %s\n", si.ID, si.Func, si.Pos.Line, si.Text)
	if len(si.Calls) > 0 {
		fmt.Fprintf(out, "  calls: %s\n", strings.Join(si.Calls, ", "))
	}
	for _, n := range s.graph.NodesForStmt(ast.StmtID(id)) {
		fmt.Fprintf(out, "  instance n%d [%s]\n", n.ID, n.Label)
	}
}

func (s *Session) cmdDefs(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: defs <name>")
		return
	}
	fnName := s.graph.Fn
	ids := s.C.Art.DB.DefsOf(fnName, args[0])
	if len(ids) == 0 {
		fmt.Fprintf(out, "no definitions of %q\n", args[0])
		return
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		si := s.C.Art.DB.Stmt(id)
		fmt.Fprintf(out, "  s%d %s line %d: %s\n", id, si.Func, si.Pos.Line, si.Text)
	}
}

func (s *Session) cmdResolve(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: resolve <global-name>")
		return
	}
	sym := s.C.Art.Info.GlobalByName(args[0])
	if sym == nil {
		fmt.Fprintf(out, "no global %q\n", args[0])
		return
	}
	ref := s.C.ResolveInitial(s.pid, s.interval, sym.GlobalID)
	if ref == nil {
		fmt.Fprintf(out, "%s's value predates the interval: initialization or own writes only\n", args[0])
		return
	}
	fmt.Fprintf(out, "%s was last written by process %d (events %d..%d)\n",
		args[0], ref.PID, ref.Edge.Start, ref.Edge.End)
	if ref.Racy {
		fmt.Fprintf(out, "WARNING: %d unordered writer(s) exist — the value is racy\n", len(ref.RacyWith))
	}
	if ref.PrelogIdx >= 0 {
		fmt.Fprintf(out, "inspect with: focus %d; emulate %d\n", ref.PID, ref.PrelogIdx)
	}
}

func (s *Session) cmdWhatIf(out io.Writer, args []string) {
	if len(args) != 1 || !strings.Contains(args[0], "=") {
		fmt.Fprintln(out, "usage: whatif <global>=<value>")
		return
	}
	parts := strings.SplitN(args[0], "=", 2)
	name := parts[0]
	val, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		fmt.Fprintf(out, "bad value %q\n", parts[1])
		return
	}
	sym := s.C.Art.Info.GlobalByName(name)
	if sym == nil {
		fmt.Fprintf(out, "no global %q (what-if currently targets globals)\n", name)
		return
	}
	res, err := s.C.WhatIf(s.pid, s.interval,
		[]replay.Override{{Slot: -1, Global: sym.GlobalID, Value: val}})
	if err != nil {
		fmt.Fprintf(out, "whatif: %v\n", err)
		return
	}
	if len(res.ChangedGlobals) == 0 {
		fmt.Fprintln(out, "no change in the interval's final global state")
	} else {
		for _, gid := range res.ChangedGlobals {
			fmt.Fprintf(out, "%s: %s -> %s\n", s.C.Art.Prog.Globals[gid].Name,
				res.Original.Globals[gid], res.Modified.Globals[gid])
		}
	}
	switch {
	case res.Original.Err != nil && res.Modified.Err == nil:
		fmt.Fprintln(out, "the original failure DISAPPEARS with this change")
	case res.Original.Err == nil && res.Modified.Err != nil:
		fmt.Fprintf(out, "the change introduces a failure: %v\n", res.Modified.Err)
	}
}

func (s *Session) cmdLog(out io.Writer, args []string) {
	pid := s.pid
	if len(args) > 0 {
		if p, err := strconv.Atoi(args[0]); err == nil && p >= 0 && p < s.C.NumProcs() {
			pid = p
		}
	}
	for ri, r := range s.C.Log.Books[pid].Records {
		fmt.Fprintf(out, "%4d: %s\n", ri, r)
	}
}
