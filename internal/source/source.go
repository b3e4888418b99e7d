// Package source provides source-file abstractions shared by every stage of
// the PPD compiler: files, byte-offset positions, human-readable line/column
// positions, spans, and diagnostic lists.
//
// Positions are compact (a file index plus byte offset) so AST nodes and
// bytecode instructions can carry them cheaply; they resolve to line/column
// only when formatting diagnostics or debugger output.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a compact position: a byte offset into a File. The zero value
// (NoPos) means "no position".
type Pos int

// NoPos is the zero Pos, meaning position information is absent.
const NoPos Pos = 0

// IsValid reports whether the position carries real location information.
func (p Pos) IsValid() bool { return p != NoPos }

// File holds the name and content of one source file plus the byte offsets
// of line starts, enabling O(log n) offset→line/column resolution.
type File struct {
	Name    string
	Content string
	lines   []int // byte offset of the start of each line
}

// NewFile builds a File, indexing line starts eagerly.
func NewFile(name, content string) *File {
	f := &File{Name: name, Content: content}
	f.lines = append(f.lines, 0)
	for i := 0; i < len(content); i++ {
		if content[i] == '\n' {
			f.lines = append(f.lines, i+1)
		}
	}
	return f
}

// Pos converts a byte offset into a Pos. Offsets are 0-based; Pos values are
// stored off-by-one so that offset 0 is distinguishable from NoPos.
func (f *File) Pos(offset int) Pos { return Pos(offset + 1) }

// Offset converts a Pos back into a byte offset.
func (f *File) Offset(p Pos) int { return int(p) - 1 }

// Position resolves a Pos to a line/column location.
func (f *File) Position(p Pos) Position {
	if !p.IsValid() {
		return Position{Filename: f.Name}
	}
	off := f.Offset(p)
	line := sort.Search(len(f.lines), func(i int) bool { return f.lines[i] > off }) - 1
	if line < 0 {
		line = 0
	}
	return Position{
		Filename: f.Name,
		Offset:   off,
		Line:     line + 1,
		Column:   off - f.lines[line] + 1,
	}
}

// Line returns the 1-based line number for p, or 0 when p is invalid.
func (f *File) Line(p Pos) int {
	if !p.IsValid() {
		return 0
	}
	return f.Position(p).Line
}

// LineText returns the text of the given 1-based line, without the newline.
func (f *File) LineText(line int) string {
	if line < 1 || line > len(f.lines) {
		return ""
	}
	start := f.lines[line-1]
	end := len(f.Content)
	if line < len(f.lines) {
		end = f.lines[line] - 1
	}
	return f.Content[start:end]
}

// Position is a resolved, human-readable source location.
type Position struct {
	Filename string
	Offset   int // byte offset, 0-based
	Line     int // 1-based
	Column   int // 1-based, in bytes
}

// IsValid reports whether the position has a line number.
func (p Position) IsValid() bool { return p.Line > 0 }

// String renders the position as file:line:column, omitting absent parts.
func (p Position) String() string {
	s := p.Filename
	if p.IsValid() {
		if s != "" {
			s += ":"
		}
		s += fmt.Sprintf("%d:%d", p.Line, p.Column)
	}
	if s == "" {
		return "-"
	}
	return s
}

// Span is a half-open [Start, End) region of a file.
type Span struct {
	Start, End Pos
}

// IsValid reports whether the span's start position is valid.
func (s Span) IsValid() bool { return s.Start.IsValid() }

// Diagnostic is one compiler or debugger message tied to a source position.
type Diagnostic struct {
	Pos  Position
	Msg  string
	Warn bool // warning rather than error
}

// Error implements the error interface.
func (d *Diagnostic) Error() string {
	kind := "error"
	if d.Warn {
		kind = "warning"
	}
	return fmt.Sprintf("%s: %s: %s", d.Pos, kind, d.Msg)
}

// ErrorList accumulates diagnostics across a compilation.
type ErrorList struct {
	diags []*Diagnostic
}

// Errorf appends a formatted error at pos.
func (l *ErrorList) Errorf(pos Position, format string, args ...any) {
	l.diags = append(l.diags, &Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Warnf appends a formatted warning at pos.
func (l *ErrorList) Warnf(pos Position, format string, args ...any) {
	l.diags = append(l.diags, &Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...), Warn: true})
}

// Len returns the total number of diagnostics (errors and warnings).
func (l *ErrorList) Len() int { return len(l.diags) }

// ErrCount returns the number of non-warning diagnostics.
func (l *ErrorList) ErrCount() int {
	n := 0
	for _, d := range l.diags {
		if !d.Warn {
			n++
		}
	}
	return n
}

// Diagnostics returns all accumulated diagnostics in insertion order.
func (l *ErrorList) Diagnostics() []*Diagnostic { return l.diags }

// Sort orders diagnostics by file, line, column.
func (l *ErrorList) Sort() {
	sort.SliceStable(l.diags, func(i, j int) bool {
		a, b := l.diags[i].Pos, l.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// Err returns nil when the list holds no errors; otherwise an error whose
// message joins every diagnostic, one per line.
func (l *ErrorList) Err() error {
	if l.ErrCount() == 0 {
		return nil
	}
	var b strings.Builder
	for i, d := range l.diags {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	return fmt.Errorf("%s", b.String())
}
