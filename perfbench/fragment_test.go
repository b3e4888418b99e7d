package main

import (
	"testing"

	"ppd/internal/dynpdg"
)

// TestCheckFragment holds checkFragment to RenderFragment's format on a
// small graph: n0 depends on n1 (data) and n2 (ctrl), both depend on n3,
// and a flow edge is never rendered. Both sibling orders are renderings;
// a changed value, a missing or extra line and a wrong edge kind are not.
func TestCheckFragment(t *testing.T) {
	g := &dynpdg.Graph{
		Nodes: []*dynpdg.Node{
			{ID: 0, Kind: dynpdg.NodeSingular, Stmt: 4, Label: "x", Value: 7, HasValue: true},
			{ID: 1, Kind: dynpdg.NodeSingular, Stmt: 2, Label: "a", Value: 3, HasValue: true},
			{ID: 2, Kind: dynpdg.NodeSingular, Stmt: 3, Label: "a>0", Value: 1, HasValue: true},
			{ID: 3, Kind: dynpdg.NodeInitial, Label: "a@pre", Value: 3, HasValue: true},
		},
		Edges: []*dynpdg.Edge{
			{Kind: dynpdg.EdgeData, From: 1, To: 0},
			{Kind: dynpdg.EdgeControl, From: 2, To: 0},
			{Kind: dynpdg.EdgeData, From: 3, To: 1},
			{Kind: dynpdg.EdgeData, From: 3, To: 2},
			{Kind: dynpdg.EdgeFlow, From: 2, To: 0},
		},
	}
	for _, tc := range []struct {
		name, frag string
		depth      int
		ok         bool
	}{
		{"data first", "n0 [x] s4 = 7\n  <-data- n1 [a] s2 = 3\n    <-data- n3 [a@pre] = 3\n  <-ctrl- n2 [a>0] s3 = 1\n    <-data- n3 [a@pre] = 3\n", 4, true},
		{"ctrl first", "n0 [x] s4 = 7\n  <-ctrl- n2 [a>0] s3 = 1\n    <-data- n3 [a@pre] = 3\n  <-data- n1 [a] s2 = 3\n    <-data- n3 [a@pre] = 3\n", 4, true},
		{"depth 1", "n0 [x] s4 = 7\n  <-data- n1 [a] s2 = 3\n  <-ctrl- n2 [a>0] s3 = 1\n", 1, true},
		{"changed value", "n0 [x] s4 = 7\n  <-data- n1 [a] s2 = 4\n    <-data- n3 [a@pre] = 3\n  <-ctrl- n2 [a>0] s3 = 1\n    <-data- n3 [a@pre] = 3\n", 4, false},
		{"missing line", "n0 [x] s4 = 7\n  <-data- n1 [a] s2 = 3\n    <-data- n3 [a@pre] = 3\n  <-ctrl- n2 [a>0] s3 = 1\n", 4, false},
		{"extra line", "n0 [x] s4 = 7\n  <-data- n1 [a] s2 = 3\n    <-data- n3 [a@pre] = 3\n  <-ctrl- n2 [a>0] s3 = 1\n    <-data- n3 [a@pre] = 3\n  <-flow- n2 [a>0] s3 = 1\n", 4, false},
		{"wrong kind", "n0 [x] s4 = 7\n  <-ctrl- n1 [a] s2 = 3\n    <-data- n3 [a@pre] = 3\n  <-ctrl- n2 [a>0] s3 = 1\n    <-data- n3 [a@pre] = 3\n", 4, false},
		{"not expanded", "n0 [x] s4 = 7\n  <-data- n1 [a] s2 = 3\n  <-ctrl- n2 [a>0] s3 = 1\n", 4, false},
	} {
		err := checkFragment(tc.frag, g, 0, tc.depth)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFragment = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}
