// Package serve is the fastdnamld daemon's core: a persistent
// multi-tenant inference service over the shared in-process worker
// fleet. Clients POST alignments and search options as jobs; the server
// admits them under per-tenant quotas, schedules them weighted-fair
// across tenants, runs them on warm dataset-keyed worker pods, streams
// progress, checkpoints every job through the fastdnaml-manifest v1
// restart format (a daemon restart resumes every incomplete job), and
// memoizes finished results in a content-addressed store so duplicate
// submissions never touch the fleet.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mlsearch"
	"repro/internal/seq"
)

// MaxJumbles bounds a single job's jumble count; larger analyses are
// submitted as several jobs.
const MaxJumbles = 1024

// JobOptions are the search parameters a client submits with an
// alignment: core.Spec, the same value the fastdnaml CLI's flags fill and
// the same normalizer, so {"alignment": "..."} alone is a valid job and
// the daemon accepts and refuses exactly what the CLI does.
type JobOptions = core.Spec

// JobSpec is the POST /v1/jobs request body.
type JobSpec struct {
	// Tenant attributes the job for quotas, fair scheduling, and
	// metrics labels ("" maps to "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within a tenant's queue: higher runs first.
	Priority int `json:"priority,omitempty"`
	// Alignment is the PHYLIP alignment text.
	Alignment string `json:"alignment"`
	// Options are the search parameters.
	Options JobOptions `json:"options"`
}

// preparedSpec is a validated, canonicalized job: the parsed alignment,
// the base search config (Seed/Jumble are set per jumble at run time),
// and the two content hashes the service schedules and memoizes by.
type preparedSpec struct {
	// Spec is the normalized spec: canonical alignment rendering and
	// every option defaulted, so equal jobs serialize identically.
	Spec  JobSpec
	Align *seq.Alignment
	Cfg   mlsearch.Config
	// ResultKey content-addresses the job's outcome. It covers
	// everything that determines the inferred trees — canonical
	// alignment, model, seed, jumbles, extents, precision, engine — and
	// deliberately excludes deployment knobs (workers, threads,
	// pipeline): results are bit-identical across those, so a re-run on
	// a differently sized fleet still hits the cache.
	ResultKey string
	// PodKey identifies the warm worker pod the job can run on. Worker
	// engines are dataset-bound (one alignment + model per fleet), so
	// the key covers the alignment, model, precision, and engine, but
	// not seeds or extents — jobs that differ only in search parameters
	// share a pod and its warm CLV caches.
	PodKey string
}

// hashJSON is the service's content hash: SHA-256 over the stable JSON
// encoding of v (struct field order is fixed, so equal values produce
// equal digests).
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Only hashes plain structs of numbers and strings; Marshal
		// cannot fail on them.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// prepareSpec validates a submitted job end to end: parse the
// alignment, normalize the options and build the search config through
// core.Prepare (the same path the CLI uses), and derive the result and
// pod keys from the canonical forms.
func prepareSpec(sp JobSpec) (*preparedSpec, error) {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if strings.TrimSpace(sp.Alignment) == "" {
		return nil, fmt.Errorf("serve: empty alignment")
	}
	a, err := seq.ReadPhylip(strings.NewReader(sp.Alignment))
	if err != nil {
		return nil, fmt.Errorf("serve: alignment: %w", err)
	}
	if sp.Options.Jumbles > MaxJumbles {
		return nil, fmt.Errorf("serve: jumbles %d above the per-job limit of %d", sp.Options.Jumbles, MaxJumbles)
	}
	cfg, prepared, err := core.Prepare(a, core.Options{Spec: sp.Options})
	if err != nil {
		return nil, err
	}
	opts := prepared.Spec
	sp.Options = opts

	// Canonical alignment rendering: parse + rewrite collapses
	// whitespace and interleaving differences, so the same data always
	// hashes the same.
	var canon strings.Builder
	if err := seq.WritePhylip(&canon, a, 0); err != nil {
		return nil, err
	}
	sp.Alignment = canon.String()

	type podDoc struct {
		Alignment  string
		Model      string
		TTRatio    float64
		Kappa      float64
		GTRRates   []float64
		Precision  string
		Engine     string
		SmoothMode string
	}
	type resultDoc struct {
		Pod         podDoc
		Jumbles     int
		Seed        int64
		Extent      int
		FinalExtent int
		Adaptive    bool
	}
	pod := podDoc{
		Alignment:  sp.Alignment,
		Model:      opts.Model,
		TTRatio:    opts.TTRatio,
		Kappa:      opts.Kappa,
		GTRRates:   opts.GTRRates,
		Precision:  opts.Precision,
		Engine:     opts.Engine,
		SmoothMode: opts.SmoothMode,
	}
	return &preparedSpec{
		Spec:   sp,
		Align:  a,
		Cfg:    cfg,
		PodKey: hashJSON(pod),
		ResultKey: hashJSON(resultDoc{
			Pod:         pod,
			Jumbles:     opts.Jumbles,
			Seed:        opts.Seed,
			Extent:      opts.Extent,
			FinalExtent: opts.FinalExtent,
			Adaptive:    opts.Adaptive,
		}),
	}, nil
}
