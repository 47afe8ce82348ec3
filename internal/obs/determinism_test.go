package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// canonicalEvents reduces a flight-recorder stream to its deterministic
// core: event lines with the wall-clock stamp dropped (run headers and
// snapshots carry timing and scheduling-dependent counters and are
// excluded by design; see the obs package comment).
func canonicalEvents(t *testing.T, data []byte) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if m["type"] != "event" {
			continue
		}
		delete(m, "t")
		b, err := json.Marshal(m) // map marshalling sorts keys
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// deterministicCounters are the counters whose totals are part of the
// determinism contract (see docs/ALGORITHMS.md §11): compaction work
// accounting, including the omission trials' event-kernel cycles.
var deterministicCounters = []string{
	"omit.simulations", "omit.batch_steps",
	"omit.event_cycles", "omit.skipped_cycles",
	"restore.simulations", "restore.batch_steps",
}

// finalCounters returns the counters of the stream's closing snapshot.
func finalCounters(t *testing.T, data []byte) map[string]int64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var snap struct {
		Type     string           `json:"type"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &snap); err != nil || snap.Type != "snapshot" {
		t.Fatalf("stream does not end in a snapshot (err %v): %s", err, lines[len(lines)-1])
	}
	return snap.Counters
}

// The flight recorder's central invariant: for a fixed seed the event
// stream is byte-identical at every worker count (events come only from
// orchestrating goroutines, never workers), and so are the totals of
// the deterministic counters. CI runs this under -race, which also
// proves the concurrent counter updates are clean.
func TestEventStreamDeterministic(t *testing.T) {
	var serialCounters map[string]int64
	run := func(workers int) []string {
		var buf bytes.Buffer
		rec := obs.NewRecorder(&buf, obs.RecorderOptions{Program: "test"})
		cfg := core.DefaultConfig()
		cfg.SkipBaseline = true
		cfg.Workers = workers
		cfg.Obs = rec
		if _, _, err := core.RunGenerate("s27", cfg); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.Validate(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("workers=%d: invalid stream: %v", workers, err)
		}
		counters := finalCounters(t, buf.Bytes())
		if serialCounters == nil {
			serialCounters = counters
		}
		for _, name := range deterministicCounters {
			if counters[name] != serialCounters[name] {
				t.Errorf("workers=%d: counter %s = %d, want %d", workers, name, counters[name], serialCounters[name])
			}
		}
		return canonicalEvents(t, buf.Bytes())
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("flow emitted no events")
	}
	if serialCounters["omit.event_cycles"] == 0 || serialCounters["omit.skipped_cycles"] == 0 {
		t.Errorf("omission trials reported no event-kernel cycles: executed %d, skipped %d",
			serialCounters["omit.event_cycles"], serialCounters["omit.skipped_cycles"])
	}
	for _, workers := range []int{4, 4} { // repeat to catch flakiness too
		got := run(workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: event %d differs\n got %s\nwant %s", workers, i, got[i], serial[i])
			}
		}
	}
}
