package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed to layers without the pprof tooling: this
// file decodes the few fields of profile.proto the attribution needs.

const (
	internalPrefix = "massbft/internal/"
	// gcBucket collects samples of the runtime's background GC workers.
	gcBucket = "runtime.gc"
	// otherBucket collects samples with no massbft/internal frame.
	otherBucket = "other"
)

// cpuProfile is the decoded subset of a pprof profile: each sample is its
// stack of function names, leaf first (inlined frames expanded, innermost
// first), with its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// layerShares charges every sample to the leaf-most massbft/internal/<pkg>
// frame; samples without one go to runtime.gc when a background GC worker
// runs them and to other otherwise. It returns the share of samples per
// bucket and the total sample count.
func (p *cpuProfile) layerShares() (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for i, stack := range p.stacks {
		counts[bucketOf(stack)] += p.counts[i]
		total += p.counts[i]
	}
	shares := make(map[string]float64, len(counts))
	for b, n := range counts {
		shares[b] = float64(n) / float64(max(total, 1))
	}
	return shares, total
}

func bucketOf(stack []string) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if fn == "runtime.gcBgMarkWorker" {
			gc = true
		}
	}
	if gc {
		return gcBucket
	}
	return otherBucket
}

// parseProfile decodes a gzip-compressed pprof profile, as written by
// runtime/pprof.StartCPUProfile.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		errFormat = errors.New("profile: malformed message")
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2: // Sample
			var s sample
			var vals []uint64
			if err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					vals = appendPacked(vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errFormat
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			if err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return forFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case field == 5 && wire == 2: // Function
			var id uint64
			var name int64
			if err := forFields(b, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, errFormat
				}
				stack = append(stack, strs[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

// forFields calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func forFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either packed (wire
// type 2) or as a single value (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
