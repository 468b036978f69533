package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runBench runs the benchmark in-process and returns its exit code, its
// full report and its last output line.
func runBench(t *testing.T, corrupt func(workload), args ...string) (int, report, summaryLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--seconds", "1", "--out", t.TempDir()), &stdout, &stderr, corrupt)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("exit %d with output %q, stderr %s", code, stdout.String(), stderr.String())
	}
	var rep report
	var last summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("report line: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	return code, rep, last
}

// A wrong answer anywhere fails the run with exit code 1 and
// "correct": false: a vector whose stored bits no longer match what the
// last request wrote, and a query answer whose count is off by one.
func TestWrongAnswerFailsRun(t *testing.T) {
	flipStoredBit := func(w workload) {
		o := w.(*opsWorkload)
		for s := range o.written {
			for d, writer := range o.written[s] {
				if writer < 0 {
					continue
				}
				words := o.expect(s, writer)
				words[0] ^= 1
				if err := o.clients[0].Put(o.dstName[s][d], opsBits, words); err != nil {
					t.Errorf("overwrite %s: %v", o.dstName[s][d], err)
				}
				return
			}
		}
		t.Error("no destination was written")
	}
	wrongCount := func(w workload) {
		q := w.(*queryWorkload)
		q.recs[0][0].count++
	}
	for _, tc := range []struct {
		workload string
		corrupt  func(workload)
	}{
		{"ops_wire", flipStoredBit},
		{"query_json", wrongCount},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			code, rep, last := runBench(t, tc.corrupt, "--workload", tc.workload, "--seed", "3")
			if code != 1 || last.Correct || rep.Correct || len(rep.Errors) == 0 {
				t.Fatalf("exit %d, correct %v, errors %q: want exit 1 and an oracle error", code, last.Correct, rep.Errors)
			}
		})
	}
}

// One seed yields byte-identical datasets and request streams; another
// seed yields different ones.
func TestStreamsRepeatPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			gen := func(seed int64) []byte {
				w, err := newWorkload(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				return w.streamBytes()
			}
			a, b, c := gen(7), gen(7), gen(8)
			if !bytes.Equal(a, b) {
				t.Error("seed 7 generated two different streams")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 7 and 8 generated the same stream")
			}
		})
	}
}

// The modeled DRAM metrics are read from a fixed set of requests, so two
// runs of one seed report them identically, to the last digit.
func TestModeledMetricsRepeatPerSeed(t *testing.T) {
	for _, name := range []string{"ops_wire", "query_json"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]report
			for i := range runs {
				code, rep, _ := runBench(t, nil, "--workload", name, "--seed", "5", "--trace", "1")
				if code != 0 {
					t.Fatalf("run %d: exit %d, errors %q", i, code, rep.Errors)
				}
				runs[i] = rep
			}
			for _, k := range []string{"modeled_ns_per_req", "modeled_nj_per_req"} {
				if a, b := runs[0].EndToEnd[k], runs[1].EndToEnd[k]; a != b || a.Value <= 0 {
					t.Errorf("%s: %v then %v", k, a, b)
				}
			}
			for _, k := range []string{"elpim.row_ops_per_req", "elpim.commands_per_req", "elpim.wordlines_per_req", "power.avg_w"} {
				if a, b := runs[0].PerLayer[k], runs[1].PerLayer[k]; a != b || a.Value <= 0 {
					t.Errorf("%s: %v then %v", k, a, b)
				}
			}
		})
	}
}

// Every span of a replayed request carries the request's id, names a
// parent that exists, and lies within it; the trace file keeps all of
// this, and the summary's self time excludes the children.
func TestTraceSpansNest(t *testing.T) {
	w := newOps(1)
	tr := newTracer()
	rs, err := w.replay(tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rs.requests != 64 || rs.execs == 0 {
		t.Fatalf("replayed %d requests, %d executions", rs.requests, rs.execs)
	}
	sum := summarize(tr.spans)
	path, err := writeTrace(t.TempDir(), "ops_wire", 1, tr.spans, sum)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]chromeEvent, len(ct.TraceEvents))
	for _, ev := range ct.TraceEvents {
		byID[ev.Args.ID] = ev
	}
	roots := 0
	for _, ev := range ct.TraceEvents {
		if ev.Name == "" || ev.Args.EndNS < ev.Args.StartNS {
			t.Fatalf("malformed span %+v", ev)
		}
		if ev.Args.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[ev.Args.Parent]
		if !ok {
			t.Fatalf("span %s names missing parent %d", ev.Name, ev.Args.Parent)
		}
		if p.Args.Req != ev.Args.Req {
			t.Errorf("span %s has request %d, its parent %s has %d", ev.Name, ev.Args.Req, p.Name, p.Args.Req)
		}
		if ev.Args.StartNS < p.Args.StartNS || ev.Args.EndNS > p.Args.EndNS {
			t.Errorf("span %s [%d, %d] is outside its parent %s [%d, %d]", ev.Name,
				ev.Args.StartNS, ev.Args.EndNS, p.Name, p.Args.StartNS, p.Args.EndNS)
		}
	}
	if roots != 64 {
		t.Errorf("%d root spans, want one per request", roots)
	}
	req := sum["request"]
	var children int64
	for name, l := range sum {
		if name != "request" {
			children += l.TotalN
		}
	}
	if req == nil || req.SelfN != req.TotalN-children {
		t.Errorf("request self time %+v, want total minus %d ns of children", req, children)
	}
}
