package jaws

import (
	"fmt"
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// Site is one compute facility JAWS can dispatch to (Perlmutter, Tahoma,
// Dori, Lawrencium, AWS in the paper, §6.1/§6.3).
type Site struct {
	Name   string
	Engine *Engine
}

// Service is the centralized JAWS layer: a catalog of sites, a central data
// store, and a Globus-like transfer service that stages inputs to the chosen
// site and results back (§6.3). It also aggregates performance metrics
// across every workflow executed through it — §6.1's "centralized workflow
// service presents an opportunity to collect performance metrics for all
// workflows executed across the organization".
type Service struct {
	eng      *sim.Engine
	central  *storage.Store
	transfer *storage.TransferService
	sites    map[string]*Site
	history  []*SubmitResult
}

// NewService creates the central service with its own data store.
func NewService(eng *sim.Engine) *Service {
	return &Service{
		eng:      eng,
		central:  storage.NewStore("jaws-central", 0, 0, 0),
		transfer: storage.NewTransferService(eng),
		sites:    map[string]*Site{},
	}
}

// Central returns the central data store (where users deposit inputs).
func (s *Service) Central() *storage.Store { return s.central }

// Transfer returns the staging service for link configuration.
func (s *Service) Transfer() *storage.TransferService { return s.transfer }

// AddSite registers a compute site built over the given cluster. The site's
// store and engine are created here.
func (s *Service) AddSite(name string, cl *cluster.Cluster) *Site {
	site := &Site{
		Name:   name,
		Engine: NewEngine(cl, storage.NewStore(name+"-scratch", 0, 0, 0)),
	}
	site.Engine.CallCaching = true
	s.sites[name] = site
	return site
}

// SubmitResult is a completed service submission.
type SubmitResult struct {
	Report *RunReport
	// StagingSec is the input+output transfer time (the Globus role).
	StagingSec float64
	Site       string
}

// Submit lints, stages inputs to the site, runs the workflow there, and
// stages results back. It drives the simulator to completion. Lint errors
// (not warnings) reject the submission — the centralized service is where
// the §6 guardrails live.
func (s *Service) Submit(def *WorkflowDef, user, siteName string, inputs []string) (*SubmitResult, error) {
	site := s.sites[siteName]
	if site == nil {
		return nil, fmt.Errorf("jaws: unknown site %q", siteName)
	}
	for _, f := range Lint(def) {
		if f.Severity == Error {
			return nil, fmt.Errorf("jaws: lint rejected %q: %s", def.Name, f)
		}
	}

	stageStart := s.eng.Now()
	staged := 0
	var stageErr error
	for _, name := range inputs {
		s.transfer.Transfer(s.central, site.Engine.Store(), name, func(err error) {
			if err != nil && stageErr == nil {
				stageErr = err
			}
			staged++
		})
	}
	s.eng.Run()
	if stageErr != nil {
		return nil, fmt.Errorf("jaws: staging to %s failed: %w", siteName, stageErr)
	}
	if staged != len(inputs) {
		return nil, fmt.Errorf("jaws: staged %d of %d inputs", staged, len(inputs))
	}
	stagingIn := float64(s.eng.Now() - stageStart)

	rep, err := site.Engine.Run(def, user)
	if err != nil {
		return nil, err
	}

	// Stage results back to the central store.
	backStart := s.eng.Now()
	outputs := site.Engine.Store().List()
	pending := 0
	for _, name := range outputs {
		if s.central.Has(name) {
			continue
		}
		pending++
		s.transfer.Transfer(site.Engine.Store(), s.central, name, func(error) { pending-- })
	}
	s.eng.Run()
	if pending != 0 {
		return nil, fmt.Errorf("jaws: %d result transfers incomplete", pending)
	}
	res := &SubmitResult{
		Report:     rep,
		StagingSec: stagingIn + float64(s.eng.Now()-backStart),
		Site:       siteName,
	}
	s.history = append(s.history, res)
	return res, nil
}

// UserStats is the organization-wide per-user summary the central service
// accumulates.
type UserStats struct {
	User        string
	Submissions int
	Shards      int
	CacheHits   int
	TaskSeconds float64
	StagingSec  float64
	FsOps       int
}

// Stats aggregates every submission by user, sorted by user name.
func (s *Service) Stats() []UserStats {
	byUser := map[string]*UserStats{}
	for _, r := range s.history {
		u := byUser[r.Report.User]
		if u == nil {
			u = &UserStats{User: r.Report.User}
			byUser[r.Report.User] = u
		}
		u.Submissions++
		u.Shards += r.Report.ShardsExecuted
		u.CacheHits += r.Report.CacheHits
		u.TaskSeconds += r.Report.TaskSeconds
		u.StagingSec += r.StagingSec
		u.FsOps += r.Report.FilesystemOps
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	out := make([]UserStats, len(users))
	for i, u := range users {
		out[i] = *byUser[u]
	}
	return out
}
