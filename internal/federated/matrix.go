package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

// Matrix is a federated matrix: the coordinator holds only the federation
// map; the raw partitions live in the symbol tables of the federated
// workers (Figure 2 of the paper).
type Matrix struct {
	c  *Coordinator
	fm FedMap
}

// Rows returns the federated matrix's total row count.
func (m *Matrix) Rows() int { return m.fm.Rows }

// Cols returns the federated matrix's total column count.
func (m *Matrix) Cols() int { return m.fm.Cols }

// Map returns a copy of the federation map.
func (m *Matrix) Map() FedMap {
	fm := m.fm
	fm.Partitions = append([]Partition(nil), m.fm.Partitions...)
	return fm
}

// Scheme returns the partitioning scheme.
func (m *Matrix) Scheme() Scheme { return m.fm.Scheme() }

// Coordinator returns the owning coordinator.
func (m *Matrix) Coordinator() *Coordinator { return m.c }

// String summarizes the federated matrix.
func (m *Matrix) String() string {
	return fmt.Sprintf("Federated(%dx%d, %d partitions, %s)",
		m.fm.Rows, m.fm.Cols, len(m.fm.Partitions), m.fm.Scheme())
}

// FromMap wraps an existing federation map (e.g. built by a worker-side
// pipeline step) as a federated matrix.
func FromMap(c *Coordinator, fm FedMap) (*Matrix, error) {
	if err := fm.Validate(); err != nil {
		return nil, err
	}
	return &Matrix{c: c, fm: fm}, nil
}

// Distribute partitions a local matrix evenly across worker addresses
// (row- or column-wise) and transfers the partitions via PUT under the
// given privacy level. It is the test/benchmark constructor; production
// deployments use Read, which never moves raw data.
func Distribute(c *Coordinator, x *matrix.Dense, addrs []string, scheme Scheme, level privacy.Level) (*Matrix, error) {
	return DistributeWithColumns(c, x, addrs, scheme, level, nil)
}

// DistributeWithColumns is Distribute with fine-grained per-column
// constraints (§4.1): colLevels assigns one privacy level per column
// (columns beyond the slice default to the coarse level). Slicing out only
// unrestricted columns of the federated matrix yields transferable data;
// any operation touching a restricted column stays restricted.
func DistributeWithColumns(c *Coordinator, x *matrix.Dense, addrs []string, scheme Scheme,
	level privacy.Level, colLevels []privacy.Level) (*Matrix, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("federated: no worker addresses")
	}
	n := len(addrs)
	fm := FedMap{Rows: x.Rows(), Cols: x.Cols()}
	total := x.Rows()
	if scheme == ColPartitioned {
		total = x.Cols()
	}
	if total < n {
		return nil, fmt.Errorf("federated: cannot split %d %s across %d workers",
			total, scheme, n)
	}
	parts := make([]Partition, n)
	beg := 0
	for i, addr := range addrs {
		size := total / n
		if i < total%n {
			size++
		}
		end := beg + size
		r := Range{RowBeg: beg, RowEnd: end, ColBeg: 0, ColEnd: x.Cols()}
		if scheme == ColPartitioned {
			r = Range{RowBeg: 0, RowEnd: x.Rows(), ColBeg: beg, ColEnd: end}
		}
		parts[i] = Partition{Range: r, Addr: addr}
		beg = end
	}
	// One concurrent PUT per worker; an aborted distribute leaves no
	// worker-side state behind (parallelCall reclaims the placed parts).
	if _, err := c.parallelCall(parts, func(i int, p Partition) []fedrpc.Request {
		r := p.Range
		part := x.SliceRows(r.RowBeg, r.RowEnd)
		if scheme == ColPartitioned {
			part = x.SliceCols(r.ColBeg, r.ColEnd)
		}
		var colPriv []int
		if len(colLevels) > 0 {
			for j := r.ColBeg; j < r.ColEnd; j++ {
				if j < len(colLevels) {
					colPriv = append(colPriv, int(colLevels[j]))
				} else {
					colPriv = append(colPriv, int(level))
				}
			}
		}
		parts[i].DataID = c.NewID()
		return []fedrpc.Request{{
			Type: fedrpc.Put, ID: parts[i].DataID, Privacy: int(level), ColPrivacy: colPriv,
			Data: fedrpc.MatrixPayload(part),
		}}
	}); err != nil {
		return nil, err
	}
	fm.Partitions = parts
	return FromMap(c, fm)
}

// ReadSpec names one raw file at one federated site.
type ReadSpec struct {
	Addr     string
	Filename string
	Privacy  privacy.Level
}

// ReadRowPartitioned builds a row-partitioned federated matrix from raw
// files at the federated sites (read-on-demand, §4.1): each worker READs
// its file locally; only the dimensions travel to the coordinator.
func ReadRowPartitioned(c *Coordinator, specs []ReadSpec) (*Matrix, error) {
	fm, err := readSites(c, specs)
	if err != nil {
		return nil, err
	}
	return FromMap(c, fm)
}

// readSites READs every spec's file at its site, one concurrent batch per
// site, and returns the row-partitioned map over the bound objects in spec
// order. Sites whose column counts disagree fail the read; the bindings
// are then reclaimed by the same sweep as any aborted parallelCall.
func readSites(c *Coordinator, specs []ReadSpec) (FedMap, error) {
	parts := make([]Partition, len(specs))
	for i, spec := range specs {
		parts[i].Addr = spec.Addr
	}
	reqs := make([][]fedrpc.Request, len(specs))
	resps, err := c.parallelCall(parts, func(i int, p Partition) []fedrpc.Request {
		id := c.NewID()
		parts[i].DataID = id
		reqs[i] = []fedrpc.Request{
			{Type: fedrpc.Read, ID: id, Filename: specs[i].Filename, Privacy: int(specs[i].Privacy)},
			{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "obj_dims", Inputs: []int64{id}}},
		}
		return reqs[i]
	})
	if err != nil {
		return FedMap{}, err
	}
	fm := FedMap{}
	for i, spec := range specs {
		dims := resps[i][1].Data.Matrix()
		rows, cols := int(dims.At(0, 0)), int(dims.At(0, 1))
		if i == 0 {
			fm.Cols = cols
		} else if cols != fm.Cols {
			c.cleanupPartial(parts, reqs)
			return FedMap{}, fmt.Errorf("federated: %s has %d columns, want %d", spec.Filename, cols, fm.Cols)
		}
		parts[i].Range = Range{RowBeg: fm.Rows, RowEnd: fm.Rows + rows, ColBeg: 0, ColEnd: cols}
		fm.Rows += rows
	}
	fm.Partitions = parts
	return fm, nil
}

// Consolidate transfers all partitions to the coordinator and assembles the
// local matrix — the transparent pin-into-memory path of §4.1. Workers
// refuse the transfer if it violates privacy constraints.
func (m *Matrix) Consolidate() (*matrix.Dense, error) {
	resps, err := m.c.parallelCall(m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.Get, ID: p.DataID}}
	})
	if err != nil {
		return nil, err
	}
	return m.assemble(func(i int) fedrpc.Payload { return resps[i][0].Data })
}

// assemble builds the local matrix from one fetched payload per partition.
func (m *Matrix) assemble(data func(i int) fedrpc.Payload) (*matrix.Dense, error) {
	out := matrix.NewDense(m.fm.Rows, m.fm.Cols)
	for i, p := range m.fm.Partitions {
		part := data(i).Matrix()
		if part == nil {
			return nil, fmt.Errorf("federated: partition %d returned no matrix", i)
		}
		if part.Rows() != p.Range.NumRows() || part.Cols() != p.Range.NumCols() {
			return nil, fmt.Errorf("federated: partition %d is %dx%d, map says %dx%d",
				i, part.Rows(), part.Cols(), p.Range.NumRows(), p.Range.NumCols())
		}
		out.SetSlice(p.Range.RowBeg, p.Range.ColBeg, part)
	}
	return out, nil
}

// Take consolidates m like Consolidate and releases the worker-side
// partitions of m and of every matrix in free in the same batch: one batch
// per worker holds the GETs of m's partitions there followed by one rmvar
// of all the worker's partitions. The worker runs every request of a
// batch, so the rmvar runs even when a GET is refused. The matrices must
// belong to one coordinator.
func Take(m *Matrix, free ...*Matrix) (*matrix.Dense, error) {
	parts, ids, err := byAddr(append([]*Matrix{m}, free...))
	if err != nil {
		return nil, err
	}
	gets := map[string][]int{} // m's partition indices per worker address
	for i, p := range m.fm.Partitions {
		gets[p.Addr] = append(gets[p.Addr], i)
	}
	resps, err := m.c.parallelCall(parts, func(_ int, p Partition) []fedrpc.Request {
		var reqs []fedrpc.Request
		for _, i := range gets[p.Addr] {
			reqs = append(reqs, fedrpc.Request{Type: fedrpc.Get, ID: m.fm.Partitions[i].DataID})
		}
		return append(reqs, rmvar(ids[p.Addr]...))
	})
	if err != nil {
		return nil, err
	}
	data := make([]fedrpc.Payload, len(m.fm.Partitions))
	for ai, p := range parts {
		for k, i := range gets[p.Addr] {
			data[i] = resps[ai][k].Data
		}
	}
	return m.assemble(func(i int) fedrpc.Payload { return data[i] })
}

// Free releases the worker-side partitions of this federated matrix
// (rmvar), keeping the workers' memory bounded across long sessions.
func (m *Matrix) Free() error { return Free(m) }

// Free releases the worker-side partitions of every matrix in ms with one
// rmvar batch per worker naming all of that worker's partitions, the
// workers in parallel: freeing k matrices costs one round trip, not k. The
// matrices must belong to one coordinator.
func Free(ms ...*Matrix) error {
	if len(ms) == 0 {
		return nil
	}
	parts, ids, err := byAddr(ms)
	if err != nil {
		return err
	}
	_, err = ms[0].c.parallelCall(parts, func(_ int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{rmvar(ids[p.Addr]...)}
	})
	return err
}

// byAddr groups the partition IDs of ms by worker address: parts holds one
// partition per address, in first-seen order. The matrices must belong to
// one coordinator.
func byAddr(ms []*Matrix) (parts []Partition, ids map[string][]int64, err error) {
	ids = map[string][]int64{}
	for _, m := range ms {
		if m.c != ms[0].c {
			return nil, nil, fmt.Errorf("federated: matrices from different coordinators")
		}
		for _, p := range m.fm.Partitions {
			if _, ok := ids[p.Addr]; !ok {
				parts = append(parts, Partition{Addr: p.Addr})
			}
			ids[p.Addr] = append(ids[p.Addr], p.DataID)
		}
	}
	return parts, ids, nil
}

// rmvar is the instruction removing ids from a worker's symbol table.
func rmvar(ids ...int64) fedrpc.Request {
	return fedrpc.Request{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: ids}}
}

// derive builds a result federated matrix over new per-partition data IDs
// with ranges transformed by fn.
func (m *Matrix) derive(rows, cols int, ids []int64, fn func(Range) Range) *Matrix {
	fm := FedMap{Rows: rows, Cols: cols}
	for i, p := range m.fm.Partitions {
		fm.Partitions = append(fm.Partitions, Partition{
			Range: fn(p.Range), Addr: p.Addr, DataID: ids[i],
		})
	}
	return &Matrix{c: m.c, fm: fm}
}

// newIDs allocates one fresh data ID per partition.
func (m *Matrix) newIDs() []int64 {
	ids := make([]int64, len(m.fm.Partitions))
	for i := range ids {
		ids[i] = m.c.NewID()
	}
	return ids
}

// RBindFed logically concatenates two federated matrices row-wise. This is
// a metadata-only operation: no worker data moves (the "logical rbind" of
// Example 2 in the paper).
func RBindFed(a, b *Matrix) (*Matrix, error) {
	if a.Cols() != b.Cols() {
		return nil, fmt.Errorf("federated: rbind column mismatch %d vs %d", a.Cols(), b.Cols())
	}
	fm := FedMap{Rows: a.Rows() + b.Rows(), Cols: a.Cols()}
	fm.Partitions = append(fm.Partitions, a.fm.Partitions...)
	for _, p := range b.fm.Partitions {
		p.Range.RowBeg += a.Rows()
		p.Range.RowEnd += a.Rows()
		fm.Partitions = append(fm.Partitions, p)
	}
	return FromMap(a.c, fm)
}

// CBindFed logically concatenates two federated matrices column-wise
// (metadata only).
func CBindFed(a, b *Matrix) (*Matrix, error) {
	if a.Rows() != b.Rows() {
		return nil, fmt.Errorf("federated: cbind row mismatch %d vs %d", a.Rows(), b.Rows())
	}
	fm := FedMap{Rows: a.Rows(), Cols: a.Cols() + b.Cols()}
	fm.Partitions = append(fm.Partitions, a.fm.Partitions...)
	for _, p := range b.fm.Partitions {
		p.Range.ColBeg += a.Cols()
		p.Range.ColEnd += a.Cols()
		fm.Partitions = append(fm.Partitions, p)
	}
	return FromMap(a.c, fm)
}
