package source

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPositionResolution(t *testing.T) {
	f := NewFile("a.mpl", "ab\ncde\n\nf")
	cases := []struct {
		offset, line, col int
	}{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, // 'a' 'b' '\n'
		{3, 2, 1}, {5, 2, 3},
		{7, 3, 1},
		{8, 4, 1},
	}
	for _, c := range cases {
		pos := f.Position(f.Pos(c.offset))
		if pos.Line != c.line || pos.Column != c.col {
			t.Errorf("offset %d: got %d:%d, want %d:%d", c.offset, pos.Line, pos.Column, c.line, c.col)
		}
	}
	if got := len(f.lines); got != 4 {
		t.Errorf("%d lines, want 4", got)
	}
}

func TestPosRoundTripProperty(t *testing.T) {
	content := strings.Repeat("line one\nline two longer\n\n", 40)
	f := NewFile("p.mpl", content)
	prop := func(off uint16) bool {
		o := int(off) % len(content)
		return f.Offset(f.Pos(o)) == o
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLineText(t *testing.T) {
	f := NewFile("a.mpl", "first\nsecond\nthird")
	if got := f.LineText(2); got != "second" {
		t.Errorf("LineText(2) = %q", got)
	}
	if got := f.LineText(3); got != "third" {
		t.Errorf("LineText(3) = %q", got)
	}
	if got := f.LineText(0); got != "" {
		t.Errorf("LineText(0) = %q", got)
	}
	if got := f.LineText(99); got != "" {
		t.Errorf("LineText(99) = %q", got)
	}
}

func TestNoPos(t *testing.T) {
	f := NewFile("a.mpl", "x")
	if NoPos.IsValid() {
		t.Error("NoPos must be invalid")
	}
	pos := f.Position(NoPos)
	if pos.IsValid() {
		t.Error("resolved NoPos must be invalid")
	}
	if got := pos.String(); got != "a.mpl" {
		t.Errorf("NoPos string = %q", got)
	}
	if f.Line(NoPos) != 0 {
		t.Error("Line(NoPos) != 0")
	}
}

func TestPositionString(t *testing.T) {
	p := Position{Filename: "f.mpl", Line: 3, Column: 7}
	if got := p.String(); got != "f.mpl:3:7" {
		t.Errorf("String = %q", got)
	}
	empty := Position{}
	if got := empty.String(); got != "-" {
		t.Errorf("empty String = %q", got)
	}
}

func TestErrorList(t *testing.T) {
	l := &ErrorList{}
	if l.Err() != nil {
		t.Error("empty list must have nil Err")
	}
	l.Warnf(Position{Filename: "w.mpl", Line: 1, Column: 1}, "watch out %d", 1)
	if l.Err() != nil {
		t.Error("warnings alone must not produce an error")
	}
	if l.ErrCount() != 0 || l.Len() != 1 {
		t.Errorf("counts: err=%d len=%d", l.ErrCount(), l.Len())
	}
	l.Errorf(Position{Filename: "e.mpl", Line: 2, Column: 3}, "bad %s", "thing")
	err := l.Err()
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "bad thing") || !strings.Contains(err.Error(), "watch out 1") {
		t.Errorf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "e.mpl:2:3: error:") {
		t.Errorf("err formatting = %v", err)
	}
}

func TestErrorListSort(t *testing.T) {
	l := &ErrorList{}
	l.Errorf(Position{Filename: "b.mpl", Line: 1, Column: 1}, "third")
	l.Errorf(Position{Filename: "a.mpl", Line: 5, Column: 1}, "second")
	l.Errorf(Position{Filename: "a.mpl", Line: 2, Column: 9}, "first-a")
	l.Errorf(Position{Filename: "a.mpl", Line: 2, Column: 1}, "first-b")
	l.Sort()
	d := l.Diagnostics()
	order := []string{"first-b", "first-a", "second", "third"}
	for i, want := range order {
		if d[i].Msg != want {
			t.Errorf("diag %d = %q, want %q", i, d[i].Msg, want)
		}
	}
}

func TestSpan(t *testing.T) {
	f := NewFile("s.mpl", "hello")
	sp := Span{Start: f.Pos(1), End: f.Pos(4)}
	if !sp.IsValid() {
		t.Error("span should be valid")
	}
	var zero Span
	if zero.IsValid() {
		t.Error("zero span should be invalid")
	}
}
