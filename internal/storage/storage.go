// Package storage models the data plane of a hyper-heterogeneous
// environment: per-site shared filesystems, an S3-like object store, and an
// inter-site transfer service (the role Globus plays in JAWS, §6.3). File
// content is never materialized — only names, sizes and placement matter to
// the orchestration results the paper reports.
package storage

import (
	"fmt"
	"sort"

	"hhcw/internal/sim"
)

// File is a named blob with a size.
type File struct {
	Name  string
	Bytes float64
}

// Store is a named collection of files with a bandwidth/latency profile.
// It models both site-local shared filesystems and cloud object stores.
type Store struct {
	Name string
	// ReadBW/WriteBW are bytes per second for streaming access.
	ReadBW, WriteBW float64
	// Latency is the per-operation setup cost in seconds.
	Latency float64

	files map[string]File

	// IO accounting for bottleneck analysis (§6.2's filesystem-strain
	// anti-pattern): total bytes moved and operation counts.
	BytesRead    float64
	BytesWritten float64
	Ops          int
}

// NewStore creates an empty store. Zero bandwidths mean "infinitely fast",
// which is convenient for tests.
func NewStore(name string, readBW, writeBW, latency float64) *Store {
	return &Store{
		Name:    name,
		ReadBW:  readBW,
		WriteBW: writeBW,
		Latency: latency,
		files:   make(map[string]File),
	}
}

// Put registers a file (overwriting any previous version) and returns the
// virtual seconds the write costs.
func (s *Store) Put(f File) float64 {
	s.files[f.Name] = f
	s.Ops++
	s.BytesWritten += f.Bytes
	return s.Latency + safeDiv(f.Bytes, s.WriteBW)
}

// Get looks a file up and returns it with the virtual seconds the read
// costs. The boolean reports existence.
func (s *Store) Get(name string) (File, float64, bool) {
	f, ok := s.files[name]
	if !ok {
		return File{}, 0, false
	}
	s.Ops++
	s.BytesRead += f.Bytes
	return f, s.Latency + safeDiv(f.Bytes, s.ReadBW), true
}

// Has reports whether a file exists without charging I/O.
func (s *Store) Has(name string) bool {
	_, ok := s.files[name]
	return ok
}

// List returns stored file names in sorted order.
func (s *Store) List() []string {
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Link describes the network path between two stores.
type Link struct {
	BandwidthBps float64 // bytes per second
	LatencySec   float64
}

// TransferService moves files between stores over configured links,
// occupying virtual time on a sim engine — the Globus role in JAWS and the
// S3-vs-Internet asymmetry behind Table 2's prefetch row. Concurrent
// transfers on the same directed link share its bandwidth fairly: each of n
// in-flight transfers progresses at BW/n, recomputed whenever a transfer
// joins or leaves the link.
type TransferService struct {
	eng   *sim.Engine
	links map[string]Link

	inflight map[string][]*xfer // linkKey → active transfers
}

// xfer is one in-flight transfer on a shared link.
type xfer struct {
	remaining  float64
	lastUpdate sim.Time
	finishEv   sim.Event
	complete   func()
}

// NewTransferService returns a service with no links; unknown pairs use a
// zero-cost default link.
func NewTransferService(eng *sim.Engine) *TransferService {
	return &TransferService{
		eng:      eng,
		links:    make(map[string]Link),
		inflight: make(map[string][]*xfer),
	}
}

func linkKey(from, to string) string { return from + "→" + to }

// SetLink configures the directed link from→to.
func (t *TransferService) SetLink(from, to string, l Link) {
	t.links[linkKey(from, to)] = l
}

// LinkFor returns the configured link or a zero-cost default.
func (t *TransferService) LinkFor(from, to string) Link {
	return t.links[linkKey(from, to)]
}

// Transfer copies name from src to dst, invoking done(err) when the copy
// completes in virtual time. A missing source fails immediately (done is
// still called asynchronously, at now). Bandwidth is shared fairly with the
// link's other in-flight transfers; the per-operation latency is paid up
// front, before the transfer joins the link.
func (t *TransferService) Transfer(src, dst *Store, name string, done func(error)) {
	f, ok := src.files[name]
	if !ok {
		t.eng.After(0, func() { done(fmt.Errorf("storage: %q not in %s", name, src.Name)) })
		return
	}
	l := t.LinkFor(src.Name, dst.Name)
	finish := func() {
		dst.files[name] = f
		dst.Ops++
		dst.BytesWritten += f.Bytes
		done(nil)
	}
	t.eng.After(sim.Time(l.LatencySec), func() {
		if l.BandwidthBps <= 0 {
			finish() // infinitely fast link
			return
		}
		key := linkKey(src.Name, dst.Name)
		x := &xfer{remaining: f.Bytes, lastUpdate: t.eng.Now(), complete: finish}
		t.settle(key, l.BandwidthBps)
		t.inflight[key] = append(t.inflight[key], x)
		t.reschedule(key, l.BandwidthBps)
	})
}

// settle advances every in-flight transfer on the link to "now" at the
// current fair-share rate.
func (t *TransferService) settle(key string, bw float64) {
	xs := t.inflight[key]
	if len(xs) == 0 {
		return
	}
	rate := bw / float64(len(xs))
	now := t.eng.Now()
	for _, x := range xs {
		x.remaining -= rate * float64(now-x.lastUpdate)
		if x.remaining < 0 {
			x.remaining = 0
		}
		x.lastUpdate = now
	}
}

// reschedule recomputes every in-flight transfer's completion event after a
// membership change.
func (t *TransferService) reschedule(key string, bw float64) {
	xs := t.inflight[key]
	if len(xs) == 0 {
		return
	}
	rate := bw / float64(len(xs))
	for _, x := range xs {
		x := x
		x.finishEv.Cancel()
		x.finishEv = t.eng.After(sim.Time(x.remaining/rate), func() {
			t.settle(key, bw)
			// Remove x from the link.
			cur := t.inflight[key]
			for i, y := range cur {
				if y == x {
					t.inflight[key] = append(cur[:i], cur[i+1:]...)
					break
				}
			}
			x.complete()
			t.reschedule(key, bw)
		})
	}
}
