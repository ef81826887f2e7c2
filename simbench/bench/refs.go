package bench

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	exactsim "github.com/exactsim/exactsim"
)

// RefQuantum is the grid reference scores are stored on; it adds at most
// RefQuantum/2 to a reference's error.
const RefQuantum = 1e-5

const refMagic = "simbench-ref 1\n"

// RefKey names one reference vector: a source on a (0-based) epoch.
type RefKey struct {
	Epoch  int
	Source exactsim.NodeID
}

// RefSet is one workload's reference file: ExactSim answers at RefEps
// (validated against a dense power iteration by cmd/simref) for the
// workload's checked sources.
type RefSet struct {
	Workload string
	// GraphChecksum is exactsim.GraphChecksum of the base graph and
	// ScheduleDigest the ScheduleDigest of the edits the checked epochs
	// need (0 without edits); a mismatch means the inputs changed and the
	// references must be rebuilt.
	GraphChecksum  uint64
	ScheduleDigest uint64
	RefEps         float64
	Vecs           map[RefKey][]float64
}

// RefPath is where a workload's reference file lives under dir.
func RefPath(dir, workload string) string { return filepath.Join(dir, workload+".ref.gz") }

// WriteRefs writes rs to path.
func WriteRefs(path string, rs *RefSet, order []RefKey) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestCompression)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	var buf [binary.MaxVarintLen64]byte
	uv := func(x uint64) { w.Write(buf[:binary.PutUvarint(buf[:], x)]) }
	w.WriteString(refMagic)
	uv(uint64(len(rs.Workload)))
	w.WriteString(rs.Workload)
	binary.Write(w, binary.LittleEndian, rs.GraphChecksum)
	binary.Write(w, binary.LittleEndian, rs.ScheduleDigest)
	binary.Write(w, binary.LittleEndian, math.Float64bits(rs.RefEps))
	uv(uint64(len(order)))
	for _, k := range order {
		v := rs.Vecs[k]
		uv(uint64(k.Epoch))
		uv(uint64(k.Source))
		uv(uint64(len(v)))
		for _, x := range v {
			w.Write(buf[:binary.PutVarint(buf[:], int64(math.Round(x/RefQuantum)))])
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// ReadRefs loads a reference file.
func ReadRefs(path string) (*RefSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r := bufio.NewReader(zr)
	magic := make([]byte, len(refMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != refMagic {
		return nil, fmt.Errorf("%s: not a reference file", path)
	}
	rs := &RefSet{Vecs: map[RefKey][]float64{}}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil || nameLen > 256 {
		return nil, fmt.Errorf("%s: bad header", path)
	}
	name := make([]byte, nameLen)
	var epsBits uint64
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rs.Workload = string(name)
	for _, p := range []*uint64{&rs.GraphChecksum, &rs.ScheduleDigest, &epsBits} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	rs.RefEps = math.Float64frombits(epsBits)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := uint64(0); i < count; i++ {
		var hdr [3]uint64
		for j := range hdr {
			if hdr[j], err = binary.ReadUvarint(r); err != nil {
				return nil, fmt.Errorf("%s: entry %d: %w", path, i, err)
			}
		}
		if hdr[2] > 1<<26 {
			return nil, fmt.Errorf("%s: entry %d: implausible length %d", path, i, hdr[2])
		}
		v := make([]float64, hdr[2])
		for j := range v {
			q, err := binary.ReadVarint(r)
			if err != nil {
				return nil, fmt.Errorf("%s: entry %d: %w", path, i, err)
			}
			v[j] = float64(q) * RefQuantum
		}
		rs.Vecs[RefKey{Epoch: int(hdr[0]), Source: exactsim.NodeID(hdr[1])}] = v
	}
	return rs, nil
}

// Match refuses a reference set built for other inputs.
func (rs *RefSet) Match(workload string, graphChecksum, scheduleDigest uint64, refEps float64) error {
	switch {
	case rs.Workload != workload:
		return fmt.Errorf("reference file is for %q, not %q", rs.Workload, workload)
	case rs.GraphChecksum != graphChecksum:
		return errors.New("reference file was built for another graph; rebuild it with cmd/simref")
	case rs.ScheduleDigest != scheduleDigest:
		return errors.New("reference file was built for another edit schedule; rebuild it with cmd/simref")
	case rs.RefEps != refEps:
		return fmt.Errorf("reference file has ε = %g, want %g", rs.RefEps, refEps)
	}
	return nil
}

// DenseSimRank computes all-pairs SimRank of g by the naive power
// iteration S ← c·WᵀSW with the diagonal reset to 1, for L rounds (error
// at most c^(L+1)). O(n²) memory: small graphs only.
func DenseSimRank(g *exactsim.Graph, c float64, L int) [][]float64 {
	n := g.N()
	s := make([][]float64, n)
	t := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		t[i] = make([]float64, n)
		s[i][i] = 1
	}
	for it := 0; it < L; it++ {
		// t = S·W: t[i][b] = mean of S[i][j] over in-neighbours j of b.
		for i := 0; i < n; i++ {
			for b := 0; b < n; b++ {
				in := g.InNeighbors(exactsim.NodeID(b))
				if len(in) == 0 {
					t[i][b] = 0
					continue
				}
				var sum float64
				for _, j := range in {
					sum += s[i][j]
				}
				t[i][b] = sum / float64(len(in))
			}
		}
		// S = c·Wᵀ·t, diagonal 1.
		for a := 0; a < n; a++ {
			in := g.InNeighbors(exactsim.NodeID(a))
			for b := 0; b < n; b++ {
				if a == b {
					s[a][b] = 1
					continue
				}
				if len(in) == 0 {
					s[a][b] = 0
					continue
				}
				var sum float64
				for _, i := range in {
					sum += t[i][b]
				}
				s[a][b] = c * sum / float64(len(in))
			}
		}
	}
	return s
}
