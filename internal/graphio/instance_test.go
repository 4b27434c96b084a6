package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/topology"
)

// figureInstance is a small fixed duty-cycle instance used by the digest
// tests: an explicit UDG with an explicit wake schedule, no randomness.
func figureInstance() core.Instance {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 1}}
	g := graph.FromUDG(pos, 1.25)
	return core.Instance{G: g, Source: 0, Start: 2,
		Wake: dutycycle.NewFixed(4, 2, [][]int{{0, 2}, {1, 3}, {0, 1}, {2}})}
}

func paperInstance(t *testing.T, n int, seed uint64, r int) core.Instance {
	t.Helper()
	dep, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1 {
		return core.Async(dep.G, dep.Source, dutycycle.NewUniform(n, r, seed^0xA5, 0), 0)
	}
	return core.Sync(dep.G, dep.Source)
}

func TestInstanceRoundTrip(t *testing.T) {
	for name, in := range map[string]core.Instance{
		"udg-sync":    paperInstance(t, 60, 3, 0),
		"udg-uniform": paperInstance(t, 60, 3, 10),
		"fixed":       figureInstance(),
		"staggered": {
			G:      paperInstance(t, 40, 5, 0).G,
			Source: paperInstance(t, 40, 5, 0).Source,
			Start:  0,
			Wake:   dutycycle.NewStaggered(40, 5, 99),
		},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := EncodeInstance(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeInstance(data)
			if err != nil {
				t.Fatal(err)
			}
			d1, err := InstanceDigest(in)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := InstanceDigest(got)
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 {
				t.Fatalf("round trip changed the digest: %s → %s", d1, d2)
			}
			// The decoded instance must schedule identically, not just
			// digest identically.
			r1, err := core.NewGOPT(0).Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := core.NewGOPT(0).Schedule(got)
			if err != nil {
				t.Fatal(err)
			}
			if r1.PA != r2.PA {
				t.Errorf("decoded instance schedules to PA=%d, original PA=%d", r2.PA, r1.PA)
			}
		})
	}
}

func TestInstanceRoundTripAbstractGraph(t *testing.T) {
	g := graph.NewBuilder(4, nil).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 3).Build()
	in := core.Sync(g, 0)
	data, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.G.M() != 4 || !got.G.HasEdge(0, 3) {
		t.Fatalf("decoded abstract graph lost edges: %v", got.G)
	}
	d1, _ := InstanceDigest(in)
	d2, _ := InstanceDigest(got)
	if d1 != d2 {
		t.Fatalf("abstract round trip changed the digest")
	}
}

// TestInstanceRoundTripAbstractGraphWithPositions guards the case of an
// explicit-edge graph that still carries geometry (legal via NewBuilder,
// and what the E-model's quadrant reads need): positions must survive the
// round trip, or the digest — which hashes them — would change.
func TestInstanceRoundTripAbstractGraphWithPositions(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 3}, {X: 0, Y: 3}}
	g := graph.NewBuilder(4, pos).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 3).Build()
	in := core.Sync(g, 0)
	data, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.G.Pos(2) != pos[2] {
		t.Fatalf("positions lost: node 2 at %v, want %v", got.G.Pos(2), pos[2])
	}
	d1, _ := InstanceDigest(in)
	d2, _ := InstanceDigest(got)
	if d1 != d2 {
		t.Fatalf("positioned abstract round trip changed the digest: %s → %s", d1, d2)
	}
}

// TestDigestGolden pins the digest of a fixed instance to a constant
// computed in a separate process. Any Go version, architecture, process or
// map-ordering change that altered the digest would break warm caches
// fleet-wide, so the canonical encoding must never drift silently.
func TestDigestGolden(t *testing.T) {
	const want = "9df145f8189e5e7953fe1addba9bb5d19e0ae330f9d15b48193bb3988255652e"
	d, err := InstanceDigest(figureInstance())
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != want {
		t.Fatalf("digest drifted:\n got %s\nwant %s\n(if the canonical encoding changed intentionally, bump digestMagic and this constant)", d, want)
	}
}

func TestDigestDeterminismAcrossConstruction(t *testing.T) {
	a, err := InstanceDigest(paperInstance(t, 80, 7, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := InstanceDigest(paperInstance(t, 80, 7, 10))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("independently constructed identical instances digest differently: %s vs %s", a, b)
	}
}

// TestDigestSensitivity verifies the digest moves when any instance input
// moves: an edge, the source, the start slot, the pre-covered set, or any
// wake-schedule parameter.
func TestDigestSensitivity(t *testing.T) {
	base := figureInstance()
	baseD, err := InstanceDigest(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	variants := map[string]core.Instance{}

	// Edge change: nudge one node so the UDG gains an edge.
	pos := append([]geom.Point(nil), base.G.Positions()...)
	pos[3] = geom.Point{X: 1, Y: 0.5}
	v := base
	v.G = graph.FromUDG(pos, 1.25)
	variants["edge"] = v

	v = base
	v.Source = 1
	variants["source"] = v

	v = base
	v.Start = 3
	variants["start"] = v

	v = base
	v.PreCovered = []int{2}
	variants["pre-covered"] = v

	v = base
	v.Wake = dutycycle.NewFixed(4, 2, [][]int{{0, 2}, {1, 3}, {0, 1}, {3}})
	variants["wake-slot"] = v

	v = base
	v.Wake = dutycycle.NewFixed(4, 4, [][]int{{0, 2}, {1, 3}, {0, 1}, {2}})
	variants["wake-rate"] = v

	v = base
	v.Wake = dutycycle.NewUniform(4, 2, 1, 0)
	variants["wake-kind"] = v

	v = base
	v.Wake = dutycycle.NewUniform(4, 2, 2, 0)
	variants["wake-seed"] = v

	for name, in := range variants {
		d, err := InstanceDigest(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d == baseD {
			t.Errorf("%s: variant digests equal to base", name)
		}
		if prev, dup := seen[d.String()]; dup {
			t.Errorf("%s and %s collide", name, prev)
		}
		seen[d.String()] = name
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := paperInstance(t, 60, 3, 0)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.PA != res.PA || got.Exact != res.Exact || got.Scheduler != res.Scheduler {
		t.Fatalf("result header changed: got %+v want %+v", got, res)
	}
	if err := got.Schedule.Validate(in); err != nil {
		t.Fatalf("decoded schedule invalid: %v", err)
	}
}

// TestResultWireStability: a result the improver never touched encodes
// without the generation/improved keys at all — pre-improver consumers
// (and golden files) see byte-identical JSON — while improver provenance
// survives a round trip when present.
func TestResultWireStability(t *testing.T) {
	in := paperInstance(t, 60, 3, 0)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generation", "improved"} {
		if bytes.Contains(data, []byte(key)) {
			t.Errorf("unimproved encoding leaks %q:\n%s", key, data)
		}
	}

	imp := *res
	imp.Generation = 3
	imp.Improved = true
	data, err = EncodeResult(&imp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 3 || !got.Improved {
		t.Fatalf("provenance lost in round trip: gen %d improved %v", got.Generation, got.Improved)
	}
}

// The buffered writer must hash exactly the canonical byte stream, across
// buffer boundaries and around a mid-stream Sum.
func TestDigestWriterBuffering(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 100) // longer than the buffer
	var want []byte
	u64 := func(v uint64) { want = binary.LittleEndian.AppendUint64(want, v) }
	str := func(s string) { u64(uint64(len(s))); want = append(want, s...) }

	w := NewDigestWriter("magic")
	str("magic")
	for i := 0; i < 100; i++ {
		w.U64(uint64(i) * 0x9e3779b97f4a7c15)
		u64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	w.S(long)
	str(long)
	if got := w.Sum(); got != Digest(sha256.Sum256(want)) {
		t.Fatalf("mid-stream Sum = %s, want %s", got, Digest(sha256.Sum256(want)))
	}
	w.S("agg")
	str("agg")
	w.Ints([]int{-1, 7})
	u64(2)
	u64(uint64(1<<64 - 1))
	u64(7)
	if got := w.Sum(); got != Digest(sha256.Sum256(want)) {
		t.Fatalf("final Sum = %s, want %s", got, Digest(sha256.Sum256(want)))
	}
}

// BenchmarkInstanceDigest300 is both digests of a 300-node paper
// deployment — the digest work of one cold request.
func BenchmarkInstanceDigest300(b *testing.B) {
	dep, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	in := core.Sync(dep.G, dep.Source)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := InstanceDigests(in); err != nil {
			b.Fatal(err)
		}
	}
}
