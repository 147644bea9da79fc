package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileLayers are the layers CPU self time is folded into. A sample
// belongs to the innermost hira/internal/<pkg> frame on its stack
// (forensics is sched/forensics.go); samples with no such frame count
// as runtime, and the remaining internal packages as other.
var profileLayers = []string{
	"sched", "forensics", "core", "cpu", "cache", "dram", "sim",
	"workload", "engine", "service", "runtime", "other",
}

// profiler is a CPU profile being written to memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into percentage shares per layer.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	shares, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("folding the CPU profile: %w", err)
	}
	return shares, nil
}

// foldProfile decodes a gzipped pprof protobuf and returns each layer's
// share of sampled CPU time in percent.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcs     = map[uint64][2]uint64{} // id -> name, filename string indices
		locations = map[uint64][]uint64{}  // id -> function ids, innermost first
		samples   []struct {
			locs  []uint64
			value int64
		}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s struct {
				locs  []uint64
				value int64
			}
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					s.locs = append(s.locs, v)
				case num == 1 && wire == 2:
					return eachVarint(b, func(x uint64) { s.locs = append(s.locs, x) })
				case num == 2 && wire == 0:
					s.value = int64(v) // the last value is CPU nanoseconds
				case num == 2 && wire == 2:
					return eachVarint(b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f [2]uint64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f[0] = v
				case 4:
					f[1] = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				f := funcs[fn]
				if l, ok := layerOf(str(f[0]), str(f[1])); ok {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("empty profile")
	}
	shares := map[string]float64{}
	for _, l := range profileLayers {
		shares[l] = 100 * byLayer[l] / total
	}
	return shares, nil
}

// layerOf maps a function to its layer when it is in hira/internal.
func layerOf(name, file string) (string, bool) {
	rest, ok := strings.CutPrefix(name, "hira/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if pkg == "sched" && strings.HasSuffix(file, "sched/forensics.go") {
		return "forensics", true
	}
	for _, l := range profileLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

// eachField walks the fields of one protobuf message, handing varint
// fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
