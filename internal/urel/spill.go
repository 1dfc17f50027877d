package urel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"

	"repro/internal/rel"
	"repro/internal/vars"
)

// Spill manages one evaluation's spill directory: when an Exec runs with
// both a memory budget and a Spill attached, intermediate relations whose
// combined footprint exceeds the budget are written to temp files and
// dropped from memory, then transparently rehydrated when a later operator
// needs them. The budget then acts as a high-water mark for the live set
// instead of a hard abort — see docs/STORAGE.md "Spill files".
//
// Spill files are private to the evaluation (row-oriented, unversioned —
// the columnar pdbstore format in internal/store is the durable one) and
// the whole directory is removed by Close. A relation's file is written at
// most once: stored tuples are immutable, so re-spilling a rehydrated
// relation just drops its in-memory state again.
//
// I/O errors are sticky: the first failure is recorded and reported by
// Err, operators keep going (possibly with empty inputs), and the
// evaluator aborts the evaluation at the next operator boundary — results
// are discarded, never silently wrong.
type Spill struct {
	dir     string
	seq     int
	written atomic.Int64
	files   int
	err     error
}

// spillPattern names spill directories; ownerFile, inside one, holds the
// pid of the process that created it.
const (
	spillPattern = "pdb-spill-*"
	ownerFile    = "owner.pid"
)

// NewSpill creates a fresh spill directory under parent ("" selects the
// system temp directory) and records the owning process in it, so that a
// later SweepSpills can tell a crashed owner's leftovers from a live one's.
func NewSpill(parent string) (*Spill, error) {
	dir, err := os.MkdirTemp(parent, spillPattern)
	if err == nil {
		if err = os.WriteFile(filepath.Join(dir, ownerFile), []byte(strconv.Itoa(os.Getpid())), 0o600); err != nil {
			os.RemoveAll(dir)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("urel: creating spill directory: %w", err)
	}
	return &Spill{dir: dir}, nil
}

// SweepSpills removes the spill directories under parent whose recorded
// owner is no longer alive — what a killed process (Close never ran) left
// behind — and returns how many it removed. A directory with a live owner
// is never touched, so servers may share a parent; nor is one with no
// readable owner record, which may be a NewSpill in progress.
func SweepSpills(parent string) int {
	dirs, _ := filepath.Glob(filepath.Join(parent, spillPattern))
	removed := 0
	for _, dir := range dirs {
		b, err := os.ReadFile(filepath.Join(dir, ownerFile))
		if err != nil {
			continue
		}
		if pid, err := strconv.Atoi(string(b)); err == nil && !processAlive(pid) && os.RemoveAll(dir) == nil {
			removed++
		}
	}
	return removed
}

// processAlive reports whether pid names a running process. Only a
// definite "no such process" counts as dead: a process this one may not
// signal, or a platform without signal 0, reads as alive.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	defer p.Release()
	err = p.Signal(syscall.Signal(0))
	return !errors.Is(err, os.ErrProcessDone) && !errors.Is(err, syscall.ESRCH)
}

// Dir returns the spill directory path.
func (s *Spill) Dir() string { return s.dir }

// Bytes returns the total bytes written to spill files so far.
func (s *Spill) Bytes() int64 { return s.written.Load() }

// Files returns the number of spill files created so far.
func (s *Spill) Files() int { return s.files }

// Err returns the first spill I/O failure, nil before any.
func (s *Spill) Err() error { return s.err }

func (s *Spill) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Close removes the spill directory and every file in it.
func (s *Spill) Close() error { return os.RemoveAll(s.dir) }

// spillState is a Relation's connection to its spill file.
type spillState struct {
	sp      *Spill
	path    string
	n, nd   int  // pairs and condition bindings in the file
	written bool // file holds the relation's pairs
}

// Spilled reports whether the relation's tuples currently live on disk.
func (r *Relation) Spilled() bool { return r.spilled }

// mustResident guards the direct accessors: reading a spilled relation's
// tuples is a sequencing bug (the Exec hydrates inputs before every
// operator), and returning empty data would silently corrupt results.
func (r *Relation) mustResident(op string) {
	if r.spilled {
		panic("urel: " + op + " on a spilled relation (operator access must go through Exec, which rehydrates inputs)")
	}
}

// spillOut writes r's pairs to its spill file (first spill only — tuples
// are immutable) and drops the in-memory tuple storage. The footprint
// estimate r.bytes survives for budget re-accounting on hydrate. On I/O
// failure the relation stays resident and the error is sticky on s.
func (s *Spill) spillOut(r *Relation) {
	if r.spilled || s.err != nil {
		return
	}
	if r.sp == nil {
		s.seq++
		s.files++
		r.sp = &spillState{sp: s, path: fmt.Sprintf("%s/rel-%06d.spill", s.dir, s.seq)}
	}
	if !r.sp.written {
		n, err := writePairs(r.sp.path, r)
		if err != nil {
			s.fail(fmt.Errorf("urel: spilling relation: %w", err))
			return
		}
		r.sp.written = true
		r.sp.n = len(r.tuples)
		for _, t := range r.tuples {
			r.sp.nd += len(t.D)
		}
		s.written.Add(n)
	}
	r.tuples, r.idx = nil, rel.Index{}
	r.spilled = true
}

// hydrate reloads a spilled relation from its file, rebuilding the tuple
// list in the original insertion order — the rebuilt relation is
// indistinguishable from one that never spilled, which is what keeps
// spilled evaluations bit-identical to in-memory ones. The pairs were
// unique when written, so they are appended unhashed and without an index;
// the next probe builds one. Rows are carved from one slab, conditions
// from another.
func (r *Relation) hydrate() error {
	if !r.spilled {
		return nil
	}
	f, err := os.Open(r.sp.path)
	if err != nil {
		return fmt.Errorf("urel: rehydrating relation: %w", err)
	}
	defer f.Close()
	r.reserve(r.sp.n)
	r.bytes = 0
	br := bufio.NewReaderSize(f, 1<<16)
	w := len(r.schema)
	vals, ds := make([]rel.Value, r.sp.n*w), make(vars.Assignment, r.sp.nd)
	for i := 0; i < r.sp.n; i++ {
		row := rel.Tuple(vals[i*w : (i+1)*w : (i+1)*w])
		d, err := readPair(br, &ds, row)
		if err != nil {
			return fmt.Errorf("urel: rehydrating relation: %w", err)
		}
		r.appendUnique(d, row)
	}
	r.spilled = false
	return nil
}

// writePairs streams r's (D, row) pairs to path, returning the bytes
// written.
func writePairs(path string, r *Relation) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	n := int64(0)
	// put keeps the first write error in err; later writes are no-ops.
	put := func(b []byte) {
		if err == nil {
			n += int64(len(b))
			_, err = bw.Write(b)
		}
	}
	putUvarint := func(v uint64) { put(scratch[:binary.PutUvarint(scratch[:], v)]) }
	for _, t := range r.tuples {
		putUvarint(uint64(len(t.D)))
		for _, b := range t.D {
			putUvarint(uint64(uint32(b.Var)))
			putUvarint(uint64(uint32(b.Alt)))
		}
		for _, v := range t.Row {
			writeValue(put, putUvarint, scratch[:], v)
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// Spill-file value tags (internal; distinct from the pdbstore wire tags,
// which are a versioned on-disk contract — these files never outlive the
// evaluation that wrote them).
const (
	spNull = iota
	spBool0
	spBool1
	spInt
	spFloat
	spString
)

func writeValue(put func([]byte), putUvarint func(uint64), scratch []byte, v rel.Value) {
	switch v.Kind() {
	case rel.NullKind:
		scratch[0] = spNull
		put(scratch[:1])
	case rel.BoolKind:
		scratch[0] = spBool0
		if v.AsBool() {
			scratch[0] = spBool1
		}
		put(scratch[:1])
	case rel.IntKind:
		scratch[0] = spInt
		put(scratch[:1])
		put(scratch[:binary.PutVarint(scratch, v.AsInt())])
	case rel.FloatKind:
		scratch[0] = spFloat
		binary.LittleEndian.PutUint64(scratch[1:9], math.Float64bits(v.AsFloat()))
		put(scratch[:9])
	default:
		scratch[0] = spString
		put(scratch[:1])
		s := v.AsString()
		putUvarint(uint64(len(s)))
		put([]byte(s))
	}
}

// readPair decodes one (D, row) record into row, carving the D from the
// front of *ds.
func readPair(br *bufio.Reader, ds *vars.Assignment, row rel.Tuple) (vars.Assignment, error) {
	nd, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nd > uint64(len(*ds)) {
		return nil, fmt.Errorf("corrupt spill record: %d bindings", nd)
	}
	var d vars.Assignment
	if nd > 0 {
		d, *ds = (*ds)[:nd:nd], (*ds)[nd:]
		for i := range d {
			vv, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			av, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			d[i] = vars.Binding{Var: vars.Var(uint32(vv)), Alt: int32(uint32(av))}
		}
	}
	for i := range row {
		v, err := readValue(br)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return d, nil
}

func readValue(br *bufio.Reader) (rel.Value, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return rel.Value{}, err
	}
	switch tag {
	case spNull:
		return rel.Null(), nil
	case spBool0:
		return rel.Bool(false), nil
	case spBool1:
		return rel.Bool(true), nil
	case spInt:
		i, err := binary.ReadVarint(br)
		if err != nil {
			return rel.Value{}, err
		}
		return rel.Int(i), nil
	case spFloat:
		var fb [8]byte
		if _, err := io.ReadFull(br, fb[:]); err != nil {
			return rel.Value{}, err
		}
		return rel.Float(math.Float64frombits(binary.LittleEndian.Uint64(fb[:]))), nil
	case spString:
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return rel.Value{}, err
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return rel.Value{}, err
		}
		return rel.String(string(buf)), nil
	default:
		return rel.Value{}, fmt.Errorf("corrupt spill record: tag %d", tag)
	}
}
