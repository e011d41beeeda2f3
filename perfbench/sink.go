package main

import (
	"math"
	"sync/atomic"
	"time"

	"pdspbench/internal/tuple"
)

// adCampaigns is the number of campaigns the AD generator draws from;
// every CTR the app emits must name one of them.
const adCampaigns = 20

// sinkProbe is the sink tap of one execution. It measures latency
// (tap time minus the tuple's source ingest stamp), counts deliveries,
// and gathers what the output checks compare.
type sinkProbe struct {
	lat    *reservoir // pooled over the whole pass
	appLat *reservoir // per application; nil when not traced

	// fingerprint turns on the order-independent multiset hash (sum and
	// mixed sum of per-tuple hashes over values and event time).
	fingerprint bool
	sum, mixed  atomic.Uint64

	// checkAD validates AD's output invariants and keeps its
	// interleaving-independent digest: the newest event time emitted per
	// campaign.
	checkAD bool
	campMax [adCampaigns]atomic.Int64

	n, bad atomic.Int64
}

func newSinkProbe(lat, appLat *reservoir, fingerprint, checkAD bool) *sinkProbe {
	p := &sinkProbe{lat: lat, appLat: appLat, fingerprint: fingerprint, checkAD: checkAD}
	for i := range p.campMax {
		p.campMax[i].Store(math.MinInt64)
	}
	return p
}

// tap is the engine's SinkTap. It owns t and releases it, as the engine
// does for untapped sinks.
func (p *sinkProbe) tap(_ string, t *tuple.Tuple) {
	now := time.Now().UnixNano()
	p.n.Add(1)
	if t.Ingest > 0 {
		ms := float64(now-t.Ingest) / 1e6
		if p.lat != nil {
			p.lat.add(ms)
		}
		if p.appLat != nil {
			p.appLat.add(ms)
		}
	}
	if p.fingerprint {
		h := hashTuple(t)
		p.sum.Add(h)
		p.mixed.Add(mix64(h))
	}
	if p.checkAD && !p.adValid(t) {
		p.bad.Add(1)
	}
	t.Release()
}

// adValid checks one AD output: (campaign, ctr) with the campaign among
// the generator's and the click-through rate in (0, 1]. It also folds
// the tuple's event time into the campaign's digest entry.
func (p *sinkProbe) adValid(t *tuple.Tuple) bool {
	if len(t.Values) != 2 || t.Values[0].Kind != tuple.TypeInt || t.Values[1].Kind != tuple.TypeDouble {
		return false
	}
	c, ctr := t.Values[0].I, t.Values[1].D
	if c < 0 || c >= adCampaigns || !(ctr > 0 && ctr <= 1) {
		return false
	}
	slot := &p.campMax[c]
	for {
		cur := slot.Load()
		if t.EventTime <= cur || slot.CompareAndSwap(cur, t.EventTime) {
			return true
		}
	}
}

// adDigest is the campaign digest as a plain array.
func (p *sinkProbe) adDigest() [adCampaigns]int64 {
	var d [adCampaigns]int64
	for i := range d {
		d[i] = p.campMax[i].Load()
	}
	return d
}

// multiset is the order-independent fingerprint of everything delivered.
type multiset struct {
	n          int64
	sum, mixed uint64
}

func (p *sinkProbe) multiset() multiset {
	return multiset{n: p.n.Load(), sum: p.sum.Load(), mixed: p.mixed.Load()}
}

// hashTuple is FNV-1a over a tuple's values and event time: everything
// an operator computes, nothing the engine stamps for bookkeeping.
func hashTuple(t *tuple.Tuple) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	for _, v := range t.Values {
		word(uint64(v.Kind))
		switch v.Kind {
		case tuple.TypeInt:
			word(uint64(v.I))
		case tuple.TypeDouble:
			word(math.Float64bits(v.D))
		default:
			for i := 0; i < len(v.S); i++ {
				h ^= uint64(v.S[i])
				h *= prime
			}
		}
	}
	word(uint64(t.EventTime))
	return h
}

// mix64 is the splitmix64 finalizer; summing mixed hashes beside raw
// ones makes two different multisets with equal sums unlikely.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
