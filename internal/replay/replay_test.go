package replay

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/wal"
)

// The shared fixture: one table scenario and its pre-generated report
// bytes, built once — every parity comparison in this file depends on
// all runs seeing identical input bytes.
var (
	fixtureOnce   sync.Once
	fixtureSc     *sim.Scenario
	fixtureRounds []sim.LLRPRound
	fixtureErr    error
)

const fixtureOnlineRounds = 3

func fixture(t *testing.T) (*sim.Scenario, []sim.LLRPRound) {
	t.Helper()
	fixtureOnce.Do(func() {
		sc, err := sim.Build(sim.TableConfig())
		if err != nil {
			fixtureErr = err
			return
		}
		rounds, err := sim.GenerateLLRPRounds(sc, fixtureOnlineRounds, 6)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureSc, fixtureRounds = sc, rounds
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureSc, fixtureRounds
}

func deployment(sc *sim.Scenario) pipeline.Deployment {
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	return pipeline.Deployment{Arrays: arrays, Grid: sc.Grid}
}

// readerIDs is the deterministic per-round delivery order; the round
// payloads live in a map, and parity depends on feeding every run the
// same order.
func readerIDs(sc *sim.Scenario) []string {
	ids := make([]string, 0, len(sc.Readers))
	for _, r := range sc.Readers {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// directRun ingests the rounds straight into a fresh pipeline — the
// uninterrupted reference every replay and recovery path must match.
func directRun(t *testing.T, sc *sim.Scenario, rounds []sim.LLRPRound) []pipeline.Fix {
	t.Helper()
	p, err := pipeline.New(deployment(sc))
	if err != nil {
		t.Fatal(err)
	}
	fixes, wait := collectFixes(p)
	p.Start()
	for _, rd := range rounds {
		for _, id := range readerIDs(sc) {
			rep, err := llrp.UnmarshalROAccessReport(rd.Payloads[id])
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Drain()
	wait()
	return *fixes
}

func collectFixes(p *pipeline.Pipeline) (*[]pipeline.Fix, func()) {
	var fixes []pipeline.Fix
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range p.Fixes() {
			fixes = append(fixes, f)
		}
	}()
	return &fixes, func() { <-done }
}

// recordRounds appends the given rounds to w with a synthetic capture
// clock (one round per 100 ms — pacing tests divide this).
func recordRounds(t *testing.T, w *wal.WAL, sc *sim.Scenario, rounds []sim.LLRPRound, epoch time.Time) {
	t.Helper()
	for i, rd := range rounds {
		at := epoch.Add(time.Duration(i) * 100 * time.Millisecond)
		for _, id := range readerIDs(sc) {
			if _, err := w.Append(at, llrp.MsgROAccessReport, rd.Payloads[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplayMatchesDirect is the harness's core promise: replaying a
// WAL capture unthrottled produces bit-identical fixes — the same
// parity hash — as the live pipeline that ingested those bytes, and a
// second replay agrees with the first.
func TestReplayMatchesDirect(t *testing.T) {
	sc, rounds := fixture(t)
	ref := directRun(t, sc, rounds)
	refParity := HashFixes(ref)
	if len(ref) != fixtureOnlineRounds {
		t.Fatalf("reference run emitted %d fixes, want %d", len(ref), fixtureOnlineRounds)
	}

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.WithFsync(wal.FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	recordRounds(t, w, sc, rounds, time.UnixMicro(1_700_000_000_000_000))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var parities []string
	for run := 0; run < 2; run++ {
		src, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Run(src, deployment(sc), Options{})
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Records != len(rounds)*len(sc.Readers) || sum.Reports != sum.Records {
			t.Fatalf("run %d: records=%d reports=%d, want %d", run, sum.Records, sum.Reports, len(rounds)*len(sc.Readers))
		}
		if sum.Fixes != fixtureOnlineRounds || sum.Damage != nil || sum.SourceError != "" {
			t.Fatalf("run %d: fixes=%d damage=%v err=%q", run, sum.Fixes, sum.Damage, sum.SourceError)
		}
		if sum.Spectra == 0 || sum.SpectraPerSec <= 0 {
			t.Fatalf("run %d: no throughput recorded: %+v", run, sum)
		}
		parities = append(parities, sum.FixParity)
	}
	if parities[0] != refParity {
		t.Fatalf("replay parity %s != live parity %s", parities[0], refParity)
	}
	if parities[1] != parities[0] {
		t.Fatalf("replay is not deterministic: %s vs %s", parities[1], parities[0])
	}
}

// TestCrashRecoveryBitIdentical is the headline durability e2e: ingest
// through a WAL, tear the log mid-record as a kill -9 would, recover,
// replay the surviving records into a fresh pipeline, continue the
// remaining live rounds — and end with fixes bit-identical to a run
// that never crashed.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	sc, rounds := fixture(t)
	refParity := HashFixes(directRun(t, sc, rounds))
	epoch := time.UnixMicro(1_700_000_000_000_000)
	crashAfter := 3 // 2 baseline rounds + 1 online round survive

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.WithFsync(wal.FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: live ingest with WAL-first ordering, as dwatchd does.
	p1, err := pipeline.New(deployment(sc))
	if err != nil {
		t.Fatal(err)
	}
	_, wait1 := collectFixes(p1)
	p1.Start()
	for _, rd := range rounds[:crashAfter] {
		for _, id := range readerIDs(sc) {
			if _, err := w.Append(epoch, llrp.MsgROAccessReport, rd.Payloads[id]); err != nil {
				t.Fatal(err)
			}
			rep, err := llrp.UnmarshalROAccessReport(rd.Payloads[id])
			if err != nil {
				t.Fatal(err)
			}
			if err := p1.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: the process dies mid-append. Appends are single write
	// syscalls, so the on-disk state a kill -9 leaves is the file as
	// written plus, at worst, a torn final record — simulate the torn
	// write directly (no clean Close: the next Open must cope).
	p1.Close()
	wait1()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	active := segs[len(segs)-1]
	torn := append([]byte(nil), rounds[crashAfter].Payloads[readerIDs(sc)[0]]...)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:37]); err != nil { // partial frame, no valid CRC
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: restart. Open recovers (truncating the torn tail),
	// replay rebuilds pipeline state, live ingest resumes.
	w2, err := wal.Open(dir, wal.WithFsync(wal.FsyncNever))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer w2.Close()
	st := w2.Status()
	if st.Recovered != crashAfter*len(sc.Readers) || st.Truncated == 0 {
		t.Fatalf("recovery: %+v, want %d records and a truncated tail", st, crashAfter*len(sc.Readers))
	}

	p2, err := pipeline.New(deployment(sc))
	if err != nil {
		t.Fatal(err)
	}
	fixes2, wait2 := collectFixes(p2)
	p2.Start()
	res, err := wal.Scan(w2.Dir(), func(rec wal.Record) error {
		rep, err := llrp.UnmarshalROAccessReport(rec.Payload)
		if err != nil {
			return err
		}
		return p2.Ingest(rep)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != crashAfter*len(sc.Readers) {
		t.Fatalf("recovery replayed %d records, want %d", res.Records, crashAfter*len(sc.Readers))
	}
	for _, rd := range rounds[crashAfter:] {
		for _, id := range readerIDs(sc) {
			if _, err := w2.Append(epoch, llrp.MsgROAccessReport, rd.Payloads[id]); err != nil {
				t.Fatal(err)
			}
			rep, err := llrp.UnmarshalROAccessReport(rd.Payloads[id])
			if err != nil {
				t.Fatal(err)
			}
			if err := p2.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	p2.Drain()
	wait2()

	if got := HashFixes(*fixes2); got != refParity {
		t.Fatalf("post-recovery parity %s != uninterrupted parity %s", got, refParity)
	}
	// And the WAL now holds the complete capture: a final offline
	// replay of the recovered-and-continued log matches too.
	src, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sum, err := Run(src, deployment(sc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.FixParity != refParity {
		t.Fatalf("full-log replay parity %s != reference %s", sum.FixParity, refParity)
	}
}

// fakeSource feeds fabricated items with a scripted clock.
type fakeSource struct {
	items []Item
	i     int
}

func (s *fakeSource) Next() (Item, error) {
	if s.i >= len(s.items) {
		return Item{}, io.EOF
	}
	it := s.items[s.i]
	s.i++
	return it, nil
}

func (s *fakeSource) Close() error { return nil }

// TestRunPacing: Speed=N compresses the capture's inter-record gaps by
// N. Verified against a fake clock so the test is exact and instant.
func TestRunPacing(t *testing.T) {
	sc, _ := fixture(t)
	epoch := time.UnixMicro(1_700_000_000_000_000)
	src := &fakeSource{items: []Item{
		{Seq: 1, At: epoch, Type: 0},
		{Seq: 2, At: epoch.Add(1 * time.Second), Type: 0},
		{Seq: 3, At: epoch.Add(3 * time.Second), Type: 0},
	}}
	var clock time.Time = epoch
	var slept time.Duration
	sum, err := Run(src, deployment(sc), Options{
		Speed: 10,
		now:   func() time.Time { return clock },
		sleep: func(d time.Duration) {
			slept += d
			clock = clock.Add(d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 3 || sum.SkippedType != 3 {
		t.Fatalf("records=%d skipped=%d, want 3/3", sum.Records, sum.SkippedType)
	}
	// 3 s of capture at 10x = 300 ms of wall sleep.
	if slept != 300*time.Millisecond {
		t.Fatalf("slept %v, want 300ms", slept)
	}
}

// TestHashFixesSensitivity pins the parity hash's discriminating power.
func TestHashFixesSensitivity(t *testing.T) {
	base := []pipeline.Fix{
		{Seq: 3, Views: 2, Readers: []string{"r1", "r2"}, Confidence: 0.5},
		{Seq: 4, Views: 2, Readers: []string{"r1", "r2"}, Confidence: 0.75},
	}
	h := HashFixes(base)
	if h != HashFixes([]pipeline.Fix{base[1], base[0]}) {
		t.Fatal("parity must be order-independent (sorted by seq)")
	}
	mut := append([]pipeline.Fix(nil), base...)
	mut[0].Pos.X += 1e-15
	if HashFixes(mut) == h {
		t.Fatal("1-ulp position drift must change the parity")
	}
	mut = append([]pipeline.Fix(nil), base...)
	mut[1].Degraded = true
	if HashFixes(mut) == h {
		t.Fatal("degraded flag must change the parity")
	}
	if HashFixes(base[:1]) == h {
		t.Fatal("dropping a fix must change the parity")
	}
}
