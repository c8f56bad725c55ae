package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file decodes the gzipped protocol-buffer profile runtime/pprof
// writes, reading only the fields the layer fold needs:
//
//	Profile  { 2: repeated Sample; 4: repeated Location;
//	           5: repeated Function; 6: repeated string string_table }
//	Sample   { 1: repeated uint64 location_id; 2: repeated int64 value }
//	Location { 1: uint64 id; 4: repeated Line }
//	Line     { 1: uint64 function_id }
//	Function { 1: uint64 id; 2: int64 name; 4: int64 filename }
//
// Repeated scalars may arrive packed or one per field; both are read.

// frame is one function in a stack.
type frame struct{ name, file string }

// cpuProfile is the decoded subset of a CPU profile.
type cpuProfile struct {
	// stacks are the samples' call stacks, innermost frame first.
	stacks [][]frame
	// weights are the samples' counts.
	weights []int64
}

// pbField is one decoded protocol-buffer field.
type pbField struct {
	num  int
	wire int
	u    uint64 // varint value (wire 0)
	data []byte // payload (wire 2)
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.u, n = uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarint decodes one base-128 varint, returning the value and the
// bytes read (0 on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated scalar field, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.u}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile reads a gzipped runtime/pprof profile.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64][2]int64{} // function id -> name, filename string indexes
	)
	for _, f := range top {
		switch f.num {
		case 2:
			fields, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("sample: %w", err)
			}
			var s sample
			for _, sf := range fields {
				vs, err := sf.varints()
				if err != nil {
					return nil, fmt.Errorf("sample: %w", err)
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if s.count == 0 && len(vs) > 0 {
						s.count = int64(vs[0]) // the first value is the sample count
					}
				}
			}
			samples = append(samples, s)
		case 4:
			fields, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, lf := range fields {
				switch lf.num {
				case 1:
					id = lf.u
				case 4:
					line, err := pbFields(lf.data)
					if err != nil {
						return nil, fmt.Errorf("line: %w", err)
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.u)
						}
					}
				}
			}
			locs[id] = fns
		case 5:
			fields, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("function: %w", err)
			}
			var id uint64
			var names [2]int64
			for _, ff := range fields {
				switch ff.num {
				case 1:
					id = ff.u
				case 2:
					names[0] = int64(ff.u)
				case 4:
					names[1] = int64(ff.u)
				}
			}
			funcs[id] = names
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []frame
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				stack = append(stack, frame{name: str(fn[0]), file: str(fn[1])})
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.count)
	}
	return p, nil
}

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "pimphony/internal/"

// layerOf names the layer a frame belongs to, and false for frames
// outside this repository (runtime and standard library). The
// benchmark's own package main counts as "other".
func layerOf(f frame) (string, bool) {
	if strings.HasPrefix(f.name, "main.") {
		return "other", true
	}
	if !strings.HasPrefix(f.name, "pimphony/") {
		return "", false
	}
	rest, ok := strings.CutPrefix(f.name, repoPrefix)
	if !ok {
		return "other", true
	}
	pkg, fn, _ := strings.Cut(rest, ".")
	switch pkg {
	case "kernels", "isa":
		return "kernels", true
	case "workload", "sched", "pim", "perfmodel", "backend", "cluster", "memory":
		return pkg, true
	case "serve":
		switch path.Base(f.file) {
		case "des.go", "advance.go", "deque.go":
			return "serve.des", true
		case "views.go", "ordindex.go", "placement.go", "policy.go", "autoscale.go", "faults.go", "fleet.go":
			return "serve.sched", true
		case "foldsort.go":
			return "serve.fold", true
		}
		if strings.HasPrefix(fn, "foldReport") || strings.HasPrefix(fn, "quantiles") {
			return "serve.fold", true
		}
	}
	return "other", true
}

// foldProfile charges every sample of a CPU profile to the innermost
// frame from this repository — runtime and standard-library frames
// count toward the repository frame that called them — and returns each
// layer's share of all samples in percent. Stacks with no repository
// frame (the garbage collector's workers, the scheduler) count as
// runtime.gc.
func foldProfile(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for i, stack := range p.stacks {
		layer := "runtime.gc"
		for _, f := range stack {
			if l, ok := layerOf(f); ok {
				layer = l
				break
			}
		}
		counts[layer] += p.weights[i]
		total += p.weights[i]
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		}
	}
	return shares, nil
}
