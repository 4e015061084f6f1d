package main

import "time"

// The host this benchmark runs on drifts in speed by 15-20% over minutes
// (neighbouring tenants, memory contention), which would swamp any host
// time compared across runs. So every host time is scaled to a reference
// host speed: a run times a fixed kernel of the benchmark's own between
// its passes, and multiplies its host times by probeReference over the
// kernel's median time. The kernel does not call the simulator, so a
// change to the program does not move it, and it mixes the simulator's two
// kinds of host cost: a random walk over a set-associative tag table
// larger than a core's caches, and a dependent hash loop over an
// L1-resident table.

// probeReference is the kernel's median time on the reference machine
// (see README.md), so scaled times read in that machine's seconds.
const probeReference = 15e-3

const (
	probeSets, probeWays = 1 << 16, 16 // 8 MiB of tags
	probeWalk            = 100_000     // table lookups per sample
	probeHash            = 2_000_000   // hash steps per sample
	probeSamples         = 5           // samples before each pass
)

type hostProbe struct {
	tags    []uint64
	hot     [4096]uint32
	x       uint64
	samples []float64 // seconds per kernel run
}

func newHostProbe() *hostProbe { return &hostProbe{x: 88172645463325252} }

// sample times probeSamples runs of the kernel. The tag table lives only
// while it samples, so it never counts in an op's peak_heap_mb.
func (p *hostProbe) sample() {
	p.tags = make([]uint64, probeSets*probeWays)
	for i := 0; i < probeSamples; i++ {
		t0 := time.Now()
		p.walk()
		p.hash()
		p.samples = append(p.samples, time.Since(t0).Seconds())
	}
	p.tags = nil
}

// scale is the factor that converts this run's host times to reference
// seconds.
func (p *hostProbe) scale() float64 { return probeReference / median(p.samples) }

func (p *hostProbe) next() uint64 {
	p.x ^= p.x << 13
	p.x ^= p.x >> 7
	p.x ^= p.x << 17
	return p.x
}

// walk looks up random tags, replacing a random way on a miss.
func (p *hostProbe) walk() {
	for i := 0; i < probeWalk; i++ {
		x := p.next()
		set := int(x>>20) & (probeSets - 1)
		tag := (x >> 36) & 1023
		ways := p.tags[set*probeWays : (set+1)*probeWays]
		hit := false
		for _, t := range ways {
			if t == tag {
				hit = true
				break
			}
		}
		if !hit {
			ways[x%probeWays] = tag
		}
	}
}

// hash runs a chain of dependent loads and multiplies in a small table.
func (p *hostProbe) hash() {
	var acc uint32
	for i := 0; i < probeHash; i++ {
		j := (uint32(p.next()) ^ acc) & uint32(len(p.hot)-1)
		acc += p.hot[j]*2654435761 + uint32(i)
		p.hot[j] = acc
	}
}
