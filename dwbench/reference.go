package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/geom"
	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/sim"
)

// refFix is the reference outcome of one target round: ok is false
// where the 1-worker, 1-shard pipeline produced a miss.
type refFix struct {
	ok         bool
	x, y, conf float64
	views      int
	readers    []string
	degraded   bool
}

// reference is an environment's per-target-round reference outcomes.
type reference struct {
	fixes []refFix
	// spectra and wall time the reference pass took, for the
	// single-worker throughput figure.
	spectra uint64
	wall    time.Duration
}

// replayPool ingests an environment's rounds once, in order, through
// a fresh pipeline built with opts and collects the outcome of every
// target round. With 1 worker and 1 shard it is the reference: fixes
// do not depend on worker or shard count, so every workload's
// delivered fixes must equal these bit for bit.
func replayPool(in *envInputs, opts ...pipeline.Option) (*reference, error) {
	p, err := pipeline.New(in.dep, opts...)
	if err != nil {
		return nil, err
	}
	ref := &reference{fixes: make([]refFix, in.targetRounds())}
	seen := make([]bool, in.targetRounds())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range p.Fixes() {
			k := int(f.Seq) - firstTargetSeq
			if k < 0 || k >= len(ref.fixes) {
				continue
			}
			seen[k] = true
			ref.fixes[k] = fixOf(f)
		}
	}()
	p.Start()
	start := time.Now()
	for r := range in.rounds {
		for k := range in.readers {
			rep, err := llrp.UnmarshalROAccessReport(in.payload(r, k))
			if err == nil {
				err = p.Ingest(rep)
			}
			if err != nil {
				p.Close()
				<-done
				return nil, err
			}
		}
	}
	p.Drain()
	<-done
	ref.wall = time.Since(start)
	ref.spectra = p.Stats().SpectraComputed
	for k, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%s: pool pass lost target round %d", in.id, k)
		}
	}
	return ref, nil
}

// buildReference is the 1-worker, 1-shard reference pass.
func buildReference(in *envInputs) (*reference, error) {
	return replayPool(in, pipeline.WithWorkers(1), pipeline.WithAssemblerShards(1))
}

// diff counts the target rounds whose outcomes differ from o's.
func (r *reference) diff(o *reference) int {
	n := 0
	for k, f := range r.fixes {
		if !f.same(o.fixes[k]) {
			n++
		}
	}
	return n
}

// fixOf is a pipeline fusion outcome as a refFix.
func fixOf(f pipeline.Fix) refFix {
	return refFix{ok: f.Err == nil, x: f.Pos.X, y: f.Pos.Y, conf: f.Confidence,
		views: f.Views, readers: f.Readers, degraded: f.Degraded}
}

// positionOf is a served position as a refFix.
func positionOf(p api.Position) refFix {
	return refFix{ok: true, x: p.X, y: p.Y, conf: p.Confidence,
		views: p.Views, readers: p.Readers, degraded: p.Degraded}
}

// same reports whether two outcomes are equal bit for bit: both
// misses, or fixes with identical float bits. encoding/json
// round-trips float64 exactly, so this holds for a decoded SSE frame
// as well as in process.
func (r refFix) same(o refFix) bool {
	if r.ok != o.ok || !r.ok {
		return r.ok == o.ok
	}
	return math.Float64bits(r.x) == math.Float64bits(o.x) &&
		math.Float64bits(r.y) == math.Float64bits(o.y) &&
		math.Float64bits(r.conf) == math.Float64bits(o.conf) &&
		r.views == o.views && r.degraded == o.degraded && sameStrings(r.readers, o.readers)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accuracy accumulates ground-truth error and coverage over delivered
// fixes.
type accuracy struct {
	errs    []float64
	targets int
}

// add records one target round's outcome: delivered is false when no
// fix arrived for it.
func (a *accuracy) add(truth geom.Point, delivered bool, x, y float64) {
	a.targets++
	if delivered {
		a.errs = append(a.errs, math.Hypot(x-truth.X, y-truth.Y))
	}
}

// medianError is the median localization error in metres.
func (a *accuracy) medianError() float64 {
	if len(a.errs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), a.errs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// coverage is delivered fixes ÷ target rounds.
func (a *accuracy) coverage() float64 {
	if a.targets == 0 {
		return math.NaN()
	}
	return float64(len(a.errs)) / float64(a.targets)
}

// generateAll generates every environment's inputs (seeded per env
// from seed) and its reference, GOMAXPROCS environments at a time.
// Each environment draws from its own scenario, so the result does
// not depend on the order.
func generateAll(catalog map[string]sim.Config, ids []string, seed int64, n int) ([]*envInputs, []*reference, error) {
	ins := make([]*envInputs, len(ids))
	refs := make([]*reference, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id string) {
			defer wg.Done()
			defer func() { <-sem }()
			if ins[i], errs[i] = generate(id, catalog[id], envSeed(seed, i), n); errs[i] == nil {
				refs[i], errs[i] = buildReference(ins[i])
			}
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return ins, refs, nil
}
