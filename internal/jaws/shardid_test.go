package jaws

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// streamShardIDs streams every shard of def through the expander, with the
// call-cache hits cached reports (nil for none), emitting 1–64 shards and
// then reporting one random in-flight shard per round. Each emitted ID must
// equal fmt's "%s/shard%04d" (the bare name for a single-shard def) for the
// shard its insertion index names, and compiled[idx].ID when compiled is
// non-nil; locate must return that (position, shard); and every shard that
// is not a hit must be emitted exactly once.
func streamShardIDs(t testing.TB, def *WorkflowDef, cached func(*TaskDef, int) bool, order *randx.Source, compiled []*dag.Task) {
	t.Helper()
	x, err := def.expand(cached)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, def.TotalShards())
	var inflight []dag.TaskID
	emitted := 0
	for {
		for k := 1 + order.Intn(64); k > 0; k-- {
			task, idx, ok := x.Next()
			if !ok {
				break
			}
			if idx < 0 || idx >= len(seen) || seen[idx] {
				t.Fatalf("emission %d: bad or repeated index %d", emitted, idx)
			}
			seen[idx] = true
			p := sort.SearchInts(x.base, idx+1) - 1
			d, s := x.order[p], idx-x.base[p]
			if cached != nil && cached(d, s) {
				t.Fatalf("call-cache hit %s shard %d emitted", d.Name, s)
			}
			want := d.Name
			if d.Shards() > 1 {
				want = fmt.Sprintf("%s/shard%04d", d.Name, s)
			}
			if string(task.ID) != want {
				t.Fatalf("index %d: ID %q, want %q", idx, task.ID, want)
			}
			if compiled != nil && task.ID != compiled[idx].ID {
				t.Fatalf("index %d: ID %q, Compile's %q", idx, task.ID, compiled[idx].ID)
			}
			if gp, gs, ok := x.locate(task.ID); !ok || gp != p || gs != s {
				t.Fatalf("locate(%q) = (%d, %d, %v), want (%d, %d)", task.ID, gp, gs, ok, p, s)
			}
			inflight = append(inflight, task.ID)
			emitted++
			x.Retire(task)
		}
		if len(inflight) == 0 {
			if _, _, ok := x.Next(); !ok {
				break
			}
			t.Fatal("Next emitted a shard with none in flight to release it")
		}
		i := order.Intn(len(inflight))
		x.TaskDone(inflight[i])
		inflight[i] = inflight[len(inflight)-1]
		inflight = inflight[:len(inflight)-1]
	}
	if emitted != x.Total() {
		t.Fatalf("emitted %d shards, want Total %d", emitted, x.Total())
	}
}

// compiledTasks returns Compile's tasks for def.
func compiledTasks(t testing.TB, def *WorkflowDef) []*dag.Task {
	t.Helper()
	w, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return w.Tasks()
}

// A streamed scatter's IDs cross both 9999 → 10000 and 99999 → 100000,
// where the incremented digits carry into a new leading one.
func TestScatterIDsCrossDigitCarries(t *testing.T) {
	def, err := Parse("workflow w\ntask big dur=1s scatter=100001\n")
	if err != nil {
		t.Fatal(err)
	}
	streamShardIDs(t, def, nil, randx.New(1), compiledTasks(t, def))
}

// Call-cache hits make the streamed shard index jump, inside a def and
// across its end: the ID after a skip must be rendered in full, and so must
// the first ID of the next def even when its index follows the last one
// rendered (one's shard 0, then two's shard 1 after two's shard 0 hit).
func TestScatterIDsAcrossCallCacheHits(t *testing.T) {
	def, err := Parse(`
workflow w
task one dur=1s scatter=2
task two dur=1s scatter=12000 after=one
task three dur=1s scatter=30 after=two
`)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(d *TaskDef, s int) bool {
		switch d.Name {
		case "one":
			return s == 1
		case "two":
			return s == 0 || s%7 == 3 || (s >= 9997 && s <= 9999) || s == 11999
		}
		return s%2 == 0
	}
	streamShardIDs(t, def, cached, randx.New(2), compiledTasks(t, def))
}

// The ready FIFO switches between sharded defs as completions release them,
// so consecutive emissions change def mid-stream.
func TestScatterIDsAcrossReadyFIFOSwitches(t *testing.T) {
	def, err := Parse(`
workflow w
task a dur=1s scatter=3
task ab dur=1s scatter=12
task b dur=1s scatter=10002 after=a
task ba dur=1s scatter=5 after=a,ab
task c dur=1s scatter=2 after=b
task d dur=1s after=ba
`)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		streamShardIDs(t, def, nil, randx.New(seed), compiledTasks(t, def))
	}
}

// FuzzScatterIDs streams random scatters — 1–4 defs with names of 1–12
// bytes from a small alphabet, so that names often prefix one another, up
// to 20 000 shards each, after= edges, call-cache hits and a fuzz-chosen
// completion order — and requires every emitted ID to be Compile's at the
// emitted index and locate to invert it.
//
// The spec decodes as: a def count; per def a name length, the name (a
// byte outside the alphabet maps into it), a big-endian uint16 shard count
// and a mask of the earlier defs it runs after; then a hit stride, a hit
// offset, and the big-endian uint16 start and the length of a run of hits.
// Missing bytes read as 0.
func FuzzScatterIDs(f *testing.F) {
	f.Add([]byte{0, 0, 'a', 0x27, 0x11, 0}, uint64(1))                                             // a: 10001 shards
	f.Add([]byte{1, 0, 'a', 0, 5, 0, 1, 'a', 'b', 0x27, 0x12, 1}, uint64(2))                       // a; ab after a
	f.Add([]byte{1, 1, 'a', 'b', 0x27, 0x14, 0, 0, 'a', 0, 12, 1, 5, 3, 0x27, 0x0d, 4}, uint64(3)) // ab; a after ab; hits
	f.Add([]byte{3, 0, 'x', 0, 1, 0, 2, 'x', '_', 'x', 0, 3, 1, 0, '-', 0, 40, 3, 1, '9', 'x', 0, 2, 6, 2, 1}, uint64(4))
	f.Fuzz(func(t *testing.T, spec []byte, order uint64) {
		next := func() int {
			if len(spec) == 0 {
				return 0
			}
			b := spec[0]
			spec = spec[1:]
			return int(b)
		}
		const alphabet = "ab_-x9"
		def := &WorkflowDef{Name: "fuzz"}
		for i, n := 0, 1+next()%4; i < n; i++ {
			name := make([]byte, 1+next()%12)
			for k := range name {
				if name[k] = byte(next()); strings.IndexByte(alphabet, name[k]) < 0 {
					name[k] = alphabet[int(name[k])%len(alphabet)]
				}
			}
			td := &TaskDef{Name: string(name), Cores: 1, DurationSec: 1, Scatter: (next()<<8 | next()) % 20_001}
			for j, mask := 0, next(); j < i; j++ {
				if mask&(1<<j) != 0 {
					td.After = append(td.After, def.Tasks[j].Name)
				}
			}
			def.Tasks = append(def.Tasks, td)
		}
		if def.Validate() != nil {
			return // a duplicate name
		}
		var cached func(*TaskDef, int) bool
		if stride, off, lo, run := next(), next(), next()<<8|next(), next(); stride > 0 || run > 0 {
			cached = func(d *TaskDef, s int) bool {
				return (stride > 0 && (s+off+len(d.Name))%(stride+1) == 0) || (s >= lo && s < lo+run)
			}
		}
		// Compile builds every shard's gather list, shards² entries across an
		// edge between two big scatters. Past a budget, compile a twin that
		// declares the same defs in the same Kahn order without edges: it
		// has the same tasks, hence the same IDs, at the same indices.
		ref := def
		if gatherEdges(def) > 200_000 {
			kahn, _, _ := def.order()
			ref = &WorkflowDef{Name: def.Name}
			for _, d := range kahn {
				twin := *d
				twin.After = nil
				ref.Tasks = append(ref.Tasks, &twin)
			}
		}
		streamShardIDs(t, def, cached, randx.New(int64(order)), compiledTasks(t, ref))
	})
}

// gatherEdges counts the dependency entries Compile builds for def: each
// shard lists every shard of each def it runs after.
func gatherEdges(def *WorkflowDef) int {
	n := 0
	for _, d := range def.Tasks {
		for _, a := range d.After {
			n += d.Shards() * def.Task(a).Shards()
		}
	}
	return n
}
