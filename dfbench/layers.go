package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
)

// references computes the engine's decision digest for every pool member,
// running engine.Run once per distinct source vector.
func references(s *core.Schema, in *inputs) ([]uint64, error) {
	st := engine.MustParseStrategy(strategy)
	byKey := make(map[string]uint64)
	out := make([]uint64, len(in.pool))
	for i, src := range in.pool {
		d, ok := byKey[in.keys[i]]
		if !ok {
			res := engine.Run(s, src, st)
			if res.Err != nil {
				return nil, fmt.Errorf("reference for %s: %w", in.keys[i], res.Err)
			}
			d = capture.DigestResult(s, res)
			byKey[in.keys[i]] = d
		}
		out[i] = d
	}
	return out, nil
}

// distinct returns one pool index per distinct source vector.
func distinct(in *inputs) []int {
	seen := make(map[string]bool)
	var out []int
	for i, k := range in.keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, i)
		}
	}
	return out
}

// coreResult is the engine alone on the workload's inputs: one goroutine
// driving engine.Core with every launch completing at once, in launch
// order, as against an instant database.
type coreResult struct {
	usPerDecision   float64
	speculativeFrac float64
	decisions       int
	wrong           int
}

func timeCore(s *core.Schema, in *inputs, ref []uint64, budget time.Duration) coreResult {
	st := engine.MustParseStrategy(strategy)
	idx := distinct(in)
	var c engine.Core
	var res engine.Result
	var queue []core.AttrID
	var launches, speculative int
	out := coreResult{}
	start := time.Now()
	for time.Since(start) < budget {
		for _, i := range idx {
			c.Reset(s, in.pool[i], st, &res, nil)
			queue = queue[:0]
			for {
				ids, status := c.Advance()
				if status != engine.StatusRunning {
					break
				}
				for _, id := range ids {
					if _, spec := c.Book(id); spec {
						speculative++
					}
					launches++
					queue = append(queue, id)
				}
				c.Complete(queue[0], false)
				queue = queue[1:]
			}
			if capture.DigestResult(s, &res) != ref[i] {
				out.wrong++
			}
			out.decisions++
		}
	}
	el := time.Since(start)
	out.usPerDecision = el.Seconds() * 1e6 / float64(out.decisions)
	out.speculativeFrac = ratio(float64(speculative), float64(launches))
	return out
}

// codecResult times the wire codecs' public calls on the workload's own
// source vectors, in nanoseconds per instance.
type codecResult struct {
	jsonEnc, jsonDec, binEnc, binDec float64
}

func timeCodecs(schema string, in *inputs, budget time.Duration) (codecResult, error) {
	idx := distinct(in)
	srcs := make([]map[string]value.Value, len(idx))
	names := make([][]string, len(idx))
	for j, i := range idx {
		srcs[j] = in.pool[i]
		for n := range srcs[j] {
			names[j] = append(names[j], n)
		}
		sort.Strings(names[j])
	}
	var out codecResult
	each := budget / 4
	run := func(fn func(j int) error) (float64, error) {
		n := 0
		start := time.Now()
		for time.Since(start) < each {
			for j := range srcs {
				if err := fn(j); err != nil {
					return 0, err
				}
			}
			n += len(srcs)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	encoded := make([][]byte, len(srcs))
	var err error
	if out.jsonEnc, err = run(func(j int) error {
		b, err := json.Marshal(api.EvalRequest{Schema: schema, Strategy: strategy, Sources: api.EncodeSources(srcs[j])})
		encoded[j] = b
		return err
	}); err != nil {
		return out, err
	}
	if out.jsonDec, err = run(func(j int) error {
		var req api.EvalRequest
		dec := json.NewDecoder(bytes.NewReader(encoded[j]))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			return err
		}
		_, err := api.DecodeSources(req.Sources)
		return err
	}); err != nil {
		return out, err
	}
	bins := make([][]byte, len(srcs))
	if out.binEnc, err = run(func(j int) error {
		b := bins[j][:0]
		for _, n := range names[j] {
			b = api.AppendValue(b, srcs[j][n])
		}
		bins[j] = b
		return nil
	}); err != nil {
		return out, err
	}
	out.binDec, err = run(func(j int) error {
		cur := api.NewCursor(bins[j])
		for range names[j] {
			cur.Value()
		}
		return cur.Done()
	})
	return out, err
}
