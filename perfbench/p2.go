package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/pipeline"
	"exdra/internal/privacy"
	"exdra/internal/transform"
)

// p2-raw-lan: the Figure 8 P2 pipeline (LM) on raw CSV files held at two
// sites, one client over loopback. Every job reads the raw files through
// federated.ReadFrames and runs pipeline.RunP2Federated; the first job of
// a fresh federation parses the CSV, later jobs hit the worker lineage
// cache.
const (
	p2Sites = 2
	// p2Rows is split evenly over the sites. Per site it is a multiple of
	// ten, so the per-site 70/30 split and the local reference's global
	// 70/30 split cut at the same rows (checked in reference).
	p2Rows    = 20000
	p2Signals = 30
	p2Recipes = 150
	p2File    = "production.csv"
	// p2RelTol bounds the relative R² difference to the local reference;
	// the federated path sums partial aggregates in another order.
	p2RelTol = 1e-6
	// p2Slot leaves each round, after about 1.1 s of set-up and cold first
	// job, some 2.4 s of steady jobs.
	p2Slot = 3500 * time.Millisecond
)

type p2Run struct {
	seed int64
	dir  string
	cfg  pipeline.P2Config

	// Set once by reference, from the files the first setup wrote.
	ref      *pipeline.P2Result
	local    *frame.Frame // every site's rows, reordered so the local split equals the per-site split
	localY   *matrix.Dense
	siteFile string // one site's raw file, for the direct frame/transform timings
}

type p2Env struct {
	run   *p2Run
	cl    *fedtest.Cluster
	specs []federated.ReadSpec
	y     *matrix.Dense
	names []string
}

func newP2(seed int64, dir string) runner {
	return &p2Run{seed: seed, dir: dir, cfg: pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: "lm", Seed: seed,
	}}
}

func (r *p2Run) clients() int        { return 1 }
func (r *p2Run) slot() time.Duration { return p2Slot }

// setup generates the production table, writes one raw CSV per site into
// that site's data directory, and starts the workers over those
// directories. The label column stays at the coordinator.
func (r *p2Run) setup() (env, error) {
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: p2Rows, ContinuousCols: p2Signals, RecipeCategories: p2Recipes,
		NullRate: 0.01, Seed: r.seed,
	})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		return nil, err
	}
	dirs := make([]string, p2Sites)
	per := fr.NumRows() / p2Sites
	for i := range dirs {
		dirs[i] = filepath.Join(r.dir, fmt.Sprintf("site%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, err
		}
		if err := fr.SliceRows(i*per, (i+1)*per).WriteCSVFile(filepath.Join(dirs[i], p2File)); err != nil {
			return nil, err
		}
	}
	cl, err := startCluster(fedtest.Config{Workers: p2Sites, BaseDirs: dirs})
	if err != nil {
		return nil, err
	}
	specs := make([]federated.ReadSpec, p2Sites)
	for i, addr := range cl.Addrs {
		specs[i] = federated.ReadSpec{Addr: addr, Filename: p2File, Privacy: privacy.PrivateAggregation}
	}
	r.siteFile = filepath.Join(dirs[0], p2File)
	return &p2Env{run: r, cl: cl, specs: specs, y: y, names: fr.Names()}, nil
}

// reference runs pipeline.RunP2Local once on the rows the sites hold, read
// back from their raw files. The rows are reordered to every site's
// training rows, then every site's test rows: the local pipeline's single
// 70/30 split then selects exactly the rows the federated per-site splits
// select, so R² must agree up to summation order.
func (r *p2Run) reference(e env) error {
	if r.ref != nil {
		return nil
	}
	pe := e.(*p2Env)
	per := p2Rows / p2Sites
	k := int(float64(per) * 0.7) // pipeline.P2Config's default TrainFrac
	if p2Sites*k != int(float64(p2Rows)*0.7) {
		return fmt.Errorf("p2: per-site and global 70/30 splits differ at %d rows", p2Rows)
	}
	var train, test []*frame.Frame
	var trainIdx, testIdx []int
	for i := 0; i < p2Sites; i++ {
		f, err := frame.ReadCSVFile(filepath.Join(r.dir, fmt.Sprintf("site%d", i), p2File))
		if err != nil {
			return err
		}
		train = append(train, f.SliceRows(0, k))
		test = append(test, f.SliceRows(k, f.NumRows()))
		for j := 0; j < per; j++ {
			if j < k {
				trainIdx = append(trainIdx, i*per+j)
			} else {
				testIdx = append(testIdx, i*per+j)
			}
		}
	}
	local, err := frame.RBind(append(train, test...)...)
	if err != nil {
		return err
	}
	r.local = local
	r.localY = pe.y.SelectRows(append(trainIdx, testIdx...))
	ref, err := pipeline.RunP2Local(r.local, r.localY, r.cfg)
	if err != nil {
		return fmt.Errorf("p2 local reference: %w", err)
	}
	r.ref = ref
	return nil
}

// check compares a federated result with the local reference.
func (r *p2Run) check(res *pipeline.P2Result) error {
	if res.Features != r.ref.Features {
		return fmt.Errorf("p2: %d encoded features, local reference has %d", res.Features, r.ref.Features)
	}
	if math.Abs(res.R2-r.ref.R2) > p2RelTol*math.Abs(r.ref.R2) {
		return fmt.Errorf("p2: R² %.12g, local reference %.12g", res.R2, r.ref.R2)
	}
	return nil
}

func (e *p2Env) cluster() *fedtest.Cluster { return e.cl }
func (e *p2Env) close()                    { e.cl.Close() }

func (e *p2Env) job(tr *tracer) error {
	var ff *federated.Frame
	err := tr.span("federated.read", func() (err error) {
		ff, err = federated.ReadFrames(e.cl.Coord, e.specs)
		return err
	})
	if err != nil {
		return err
	}
	var res *pipeline.P2Result
	err = tr.span("pipeline.p2", func() (err error) {
		res, err = pipeline.RunP2Federated(ff, e.y, e.names, e.run.cfg)
		return err
	})
	// Drop the job's worker-side objects; the parsed raw files stay in
	// the workers' lineage caches.
	if cerr := e.cl.Coord.ClearAll(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return e.run.check(res)
}

// probe times the raw-data layers directly on one site's file, and the
// whole job on local matrices.
func (e *p2Env) probe(tr *tracer) error {
	r := e.run
	for i := 0; i < probeRepeats; i++ {
		var f *frame.Frame
		if err := tr.span("frame.read_csv", func() (err error) {
			f, err = frame.ReadCSVFile(r.siteFile)
			return err
		}); err != nil {
			return err
		}
		if err := tr.span("transform.encode", func() error {
			_, _, err := transform.Encode(f, r.cfg.Spec)
			return err
		}); err != nil {
			return err
		}
		if err := tr.span("matrix.local_job", func() error {
			res, err := pipeline.RunP2Local(r.local, r.localY, r.cfg)
			if err == nil && res.Features != r.ref.Features {
				err = fmt.Errorf("p2: local rerun changed the feature count")
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
