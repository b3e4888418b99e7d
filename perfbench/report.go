package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each workload n times, with seeds seed..seed+n-1, each
// run a separate process as the benchmark is normally run, and prints
// every end-to-end metric's median and quartile spread — the distance
// between the first and third quartiles (Python's
// statistics.quantiles(n=4)) as a share of the median — from which the
// metrics' bounds are set. It also runs the first seed a
// second time and requires the work counts and log_kib_per_run of both
// runs to be identical.
func steadiness(names []string, seed int64, n int, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Forward every flag except the ones this mode sets per run.
	var pass []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		key, _, hasVal := strings.Cut(a, "=")
		switch key {
		case "report", "workload", "seed", "trace":
			if !hasVal && i+1 < len(args) {
				i++
			}
			continue
		}
		pass = append(pass, args[i])
	}
	runOnce := func(name string, s int64) (*result, map[string]any, error) {
		cmd := exec.Command(self, append([]string{"--workload", name, "--seed", strconv.FormatInt(s, 10), "--trace", "0"}, pass...)...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("%s seed %d: %w", name, s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) < 2 {
			return nil, nil, fmt.Errorf("%s seed %d: no result", name, s)
		}
		var info struct {
			Info map[string]any `json:"info"`
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, nil, err
		}
		return &res, info.Info, nil
	}
	ok := true
	for _, name := range names {
		values := map[string][]float64{}
		var (
			first    map[string]any
			firstLog float64
		)
		for k := 0; k < n; k++ {
			s := seed + int64(k)
			res, info, err := runOnce(name, s)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				ok = false
				fmt.Printf("%s seed %d: correct=%t failed=%d of %d\n", name, s, res.Correct, res.Failed, res.Attempted)
			}
			if k == 0 {
				first, firstLog = info, res.Metrics["log_kib_per_run"].Value
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		res, again, err := runOnce(name, seed)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(first["counts"])
		b, _ := json.Marshal(again["counts"])
		repeat := bytes.Equal(a, b) && res.Metrics["log_kib_per_run"].Value == firstLog
		ok = ok && repeat
		fmt.Printf("== %s: %d runs, seeds %d..%d; go %v, GOMAXPROCS %v, nproc %v, rev %v\n", name, n, seed, seed+int64(n)-1,
			first["go_version"], first["gomaxprocs"], first["nproc"], first["rev"])
		fmt.Printf("   work counts and log_kib_per_run of seed %d repeat exactly: %t %s\n", seed, repeat, a)
		fmt.Printf("   %-18s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, m := range sortedKeys(values) {
			vs := values[m]
			q1, med, q3 := quartiles(vs)
			fmt.Printf("   %-18s %12.4f %12.4f %12.4f %7.2f%%\n", m, med, q1, q3, 100*spread(q1, med, q3))
		}
	}
	if !ok {
		return fmt.Errorf("some runs were incorrect or did not repeat")
	}
	return nil
}

// quartiles returns the three cut points of statistics.quantiles(xs, n=4)
// (its default, exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
