package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dwatch/internal/geom"
	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
)

// trajectoryMargin keeps generated target positions this far (metres)
// from the walls: a person does not stand inside the wall-mounted
// arrays.
const trajectoryMargin = 0.75

// Deployment config directories, relative to the repository root.
const (
	replayConfigDir = "dwbench/configs/replay"
	fleetConfigDir  = "dwbench/configs/fleet"
)

// envSeed derives environment i's trajectory seed from the run seed.
func envSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// firstTargetSeq is the sequence number of the first target round:
// sequences 1 and 2 are the baseline rounds.
const firstTargetSeq = 3

// envInputs is one environment's generated workload: two baseline
// rounds followed by one round per target position, with the ground
// truth for each target round.
type envInputs struct {
	id  string
	cfg sim.Config
	// dep is the pipeline deployment matching the payloads' "<id>/"
	// prefixed reader IDs — the shape fleet.Add builds internally.
	dep pipeline.Deployment
	// rounds[0:2] are the target-free baseline rounds; rounds[2+k]
	// carries the target at truth[k].
	rounds []sim.LLRPRound
	truth  []geom.Point
	// readers lists the reader IDs in ingest order (sorted).
	readers []string
	// seqOffset is, per reader, the byte offset of the big-endian
	// sequence number inside that reader's report payloads.
	seqOffset map[string]int
	// refs is set on a subset: the reference outcomes of its rounds.
	refs []refFix
}

// prefix returns the pool's first n target rounds (all when it has
// fewer) and their reference.
func (in *envInputs) prefix(ref *reference, n int) (*envInputs, *reference) {
	n = min(n, in.targetRounds())
	out := *in
	out.rounds, out.truth = in.rounds[:2+n], in.truth[:n]
	return &out, &reference{fixes: ref.fixes[:n]}
}

// subset returns up to n of the pool's target rounds whose reference
// has a fix, after the same baseline rounds, with their references.
func (in *envInputs) subset(ref *reference, n int) *envInputs {
	out := *in
	out.rounds = append([]sim.LLRPRound(nil), in.rounds[:2]...)
	out.truth, out.refs = nil, nil
	for k, f := range ref.fixes {
		if f.ok && len(out.truth) < n {
			out.rounds = append(out.rounds, in.rounds[2+k])
			out.truth = append(out.truth, in.truth[k])
			out.refs = append(out.refs, f)
		}
	}
	return &out
}

// targetRounds returns how many target rounds the pool holds.
func (in *envInputs) targetRounds() int { return len(in.truth) }

// payload returns reader k's payload of round r.
func (in *envInputs) payload(r, k int) []byte {
	return in.rounds[r].Payloads[in.readers[k]]
}

// payloadWithSeq returns a copy of reader k's payload of round r with
// its sequence number replaced: pool rounds are replayed as new
// sequences without re-marshaling the report.
func (in *envInputs) payloadWithSeq(r, k int, seq uint32) []byte {
	src := in.payload(r, k)
	out := make([]byte, len(src))
	copy(out, src)
	binary.BigEndian.PutUint32(out[in.seqOffset[in.readers[k]]:], seq)
	return out
}

// generate builds the environment's scenario exactly as fleet.Add does
// (same config, same "<id>/" reader prefix) and generates its rounds
// along a seeded trajectory of n positions.
func generate(id string, cfg sim.Config, seed int64, n int) (*envInputs, error) {
	sc, dep, err := buildDeployment(id, cfg)
	if err != nil {
		return nil, err
	}
	var readers []string
	for rid := range dep.Arrays {
		readers = append(readers, rid)
	}
	sort.Strings(readers)
	truth := trajectory(cfg, seed, n)
	rounds, err := sim.GenerateLLRPRoundsAt(sc, truth, 0)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", id, err)
	}
	in := &envInputs{
		id: id, cfg: cfg,
		dep:    dep,
		rounds: rounds, truth: truth, readers: readers,
		seqOffset: map[string]int{},
	}
	for _, rid := range readers {
		off, err := sequenceOffset(rounds[0].Payloads[rid])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rid, err)
		}
		in.seqOffset[rid] = off
		for _, rd := range rounds {
			p := rd.Payloads[rid]
			if off+4 > len(p) || binary.BigEndian.Uint32(p[off:]) != rd.Seq {
				return nil, fmt.Errorf("%s: sequence field not at offset %d in round %d", rid, off, rd.Seq)
			}
		}
	}
	return in, nil
}

// buildDeployment builds an environment's scenario and the pipeline
// deployment for it, with reader IDs prefixed "<id>/" as fleet.Add
// prefixes them.
func buildDeployment(id string, cfg sim.Config) (*sim.Scenario, pipeline.Deployment, error) {
	sc, err := sim.Build(cfg)
	if err != nil {
		return nil, pipeline.Deployment{}, fmt.Errorf("build %s: %w", id, err)
	}
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		r.ID = id + "/" + r.ID
		arrays[r.ID] = r.Array
	}
	return sc, pipeline.Deployment{Arrays: arrays, Grid: sc.Grid}, nil
}

// sequenceOffset locates the sequence number inside a report payload:
// re-marshaling the report with every sequence bit flipped changes
// exactly the field's four bytes. The result is checked by decoding a
// patched copy.
func sequenceOffset(payload []byte) (int, error) {
	rep, err := llrp.UnmarshalROAccessReport(payload)
	if err != nil {
		return 0, err
	}
	rep.Seq = ^rep.Seq
	other, err := rep.Marshal()
	if err != nil {
		return 0, err
	}
	off := -1
	if len(other) == len(payload) {
		for i := range payload {
			if payload[i] != other[i] {
				off = i
				break
			}
		}
	}
	if off < 0 || off+4 > len(payload) || !bytes.Equal(payload[off+4:], other[off+4:]) {
		return 0, fmt.Errorf("sequence field not found")
	}
	probe := append([]byte(nil), payload...)
	binary.BigEndian.PutUint32(probe[off:], 0xA5A5A5A5)
	got, err := llrp.UnmarshalROAccessReport(probe)
	if err != nil || got.Seq != 0xA5A5A5A5 || len(got.Reports) != len(rep.Reports) {
		return 0, fmt.Errorf("sequence field not at offset %d", off)
	}
	return off, nil
}

// trajectory returns n target positions: a serpentine walk over a
// jittered grid of the room's interior, with the jitter drawn from
// seed. Stratifying over the room keeps accuracy and coverage
// comparable across seeds while every seed visits different points.
func trajectory(cfg sim.Config, seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	w := cfg.Width - 2*trajectoryMargin
	d := cfg.Depth - 2*trajectoryMargin
	nx := max(1, int(math.Round(math.Sqrt(float64(n)*w/d))))
	ny := (n + nx - 1) / nx
	cw, cd := w/float64(nx), d/float64(ny)
	z := cfg.ArrayZ
	if z == 0 {
		z = 1.25
	}
	pts := make([]geom.Point, 0, n)
	for j := 0; j < ny && len(pts) < n; j++ {
		for i := 0; i < nx && len(pts) < n; i++ {
			col := i
			if j%2 == 1 {
				col = nx - 1 - i
			}
			x := trajectoryMargin + (float64(col)+rng.Float64())*cw
			y := trajectoryMargin + (float64(j)+rng.Float64())*cd
			pts = append(pts, geom.Pt(x, y, z))
		}
	}
	return pts
}
