// Package mobility implements node movement models for the simulator.
//
// The paper motivates per-round cluster-head reselection with mobility:
// "As a result of the mobility of wireless sensor networks, DEEC
// algorithm is conducted through successive rounds to dynamically select
// nodes ... to serve as cluster heads" (§3.1). The random-waypoint model
// here is the standard way to exercise that: each node picks a uniform
// target in the deployment box, travels toward it at a uniform speed,
// pauses, and repeats. The engine advances positions between rounds, so
// every protocol faces the same drifting topology.
package mobility

import (
	"fmt"
	"math"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

// RandomWaypoint is the classic mobility model.
type RandomWaypoint struct {
	box                geom.AABB
	speedMin, speedMax float64
	pause              float64
	rnd                *rng.Stream
	states             []wpState
}

type wpState struct {
	target   geom.Vec3
	speed    float64
	pauseRem float64
}

// NewRandomWaypoint builds a model for n nodes in the box. Speeds are
// drawn uniformly from [speedMin, speedMax] m/s per leg; pause is the
// dwell time at each waypoint in seconds.
func NewRandomWaypoint(box geom.AABB, n int, speedMin, speedMax, pause float64, r *rng.Stream) (*RandomWaypoint, error) {
	if err := box.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("mobility: node count must be positive, got %d", n)
	}
	if !(speedMin >= 0) || !(speedMax >= speedMin) || math.IsInf(speedMax, 1) {
		return nil, fmt.Errorf("mobility: invalid speed range [%v, %v]", speedMin, speedMax)
	}
	if pause < 0 {
		return nil, fmt.Errorf("mobility: negative pause %v", pause)
	}
	m := &RandomWaypoint{
		box: box, speedMin: speedMin, speedMax: speedMax, pause: pause,
		rnd: r, states: make([]wpState, n),
	}
	for i := range m.states {
		m.states[i] = wpState{
			target: box.SampleUniform(r),
			speed:  m.drawSpeed(),
		}
	}
	return m, nil
}

// drawSpeed picks a leg speed; a degenerate [v, v] range returns v
// exactly (including the fully static v = 0 case).
func (m *RandomWaypoint) drawSpeed() float64 {
	if m.speedMax == m.speedMin {
		return m.speedMin
	}
	return m.rnd.Range(m.speedMin, m.speedMax)
}

// Advance moves each position dt seconds along its leg, handling
// waypoint arrivals and pauses. Positions are mutated in place and stay
// inside the box. It panics if len(positions) differs from the model's
// node count (a wiring bug, not a runtime condition).
func (m *RandomWaypoint) Advance(positions []geom.Vec3, dt float64) {
	if len(positions) != len(m.states) {
		panic(fmt.Sprintf("mobility: %d positions for %d states", len(positions), len(m.states)))
	}
	if dt <= 0 {
		return
	}
	for i := range positions {
		m.advanceOne(&positions[i], &m.states[i], dt)
	}
}

func (m *RandomWaypoint) advanceOne(pos *geom.Vec3, st *wpState, dt float64) {
	remaining := dt
	for remaining > 0 {
		// Spend pause time first.
		if st.pauseRem > 0 {
			if st.pauseRem >= remaining {
				st.pauseRem -= remaining
				return
			}
			remaining -= st.pauseRem
			st.pauseRem = 0
		}
		if st.speed <= 0 {
			return // static node
		}
		toGo := st.target.Sub(*pos)
		dist := toGo.Norm()
		travel := st.speed * remaining
		if travel < dist {
			*pos = pos.Add(toGo.Scale(travel / dist))
			return
		}
		// Arrive at the waypoint, pause, pick the next leg.
		*pos = st.target
		if st.speed > 0 {
			remaining -= dist / st.speed
		} else {
			remaining = 0
		}
		st.pauseRem = m.pause
		st.target = m.box.SampleUniform(m.rnd)
		st.speed = m.drawSpeed()
	}
}
