package obs

import "math"

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.c.hist.count.Load() }
