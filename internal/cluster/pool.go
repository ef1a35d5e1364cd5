package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/enclosure"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/netstore"
	"deepnote/internal/parallel"
	"deepnote/internal/sched"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// Stack is one drive's full victim stack: mechanics on its own virtual
// clock, a block device, a netstore front end, and the event runner that
// feeds it. Each stack owning its clock (rather than sharing one) is
// what makes the epoch-synchronized serving engines deterministic at any
// worker count: a stack's timeline depends only on the ops queued to it,
// never on how goroutines interleave.
type Stack struct {
	// Container is the stack's container index in its layout.
	Container int
	// Server is the stack's netstore front end.
	Server *netstore.Server

	asm    enclosure.Assembly
	clock  *simclock.Virtual
	drive  *hdd.Drive
	disk   *blockdev.Disk
	runner sched.Runner
	origin time.Time

	// freqs[s] and gains[s] are layout speaker s's normalized tone and
	// off-track amplitude at this drive: the full acoustic chain walk,
	// evaluated once when the stack is built. Layout and tones are
	// immutable afterwards, so a schedule only superposes these.
	freqs []units.Frequency
	gains []float64

	// schedule is the attack plan (sorted by offset), vibs[step] the
	// superposed vibration of each step at this drive, and step the
	// index of the step in force (−1 = before the first).
	schedule []ScheduleStep
	vibs     []hdd.Vibration
	step     int
}

// Push queues an event for this stack at offset at (ns from the serving
// origin) carrying the caller's packed op id.
func (s *Stack) Push(at int64, id uint64) { s.runner.Queue.Push(at, id) }

// Elapsed returns the stack's clock as ns since the serving origin.
func (s *Stack) Elapsed() int64 { return int64(s.clock.Now().Sub(s.origin)) }

// setSchedule programs the stack's attack plan (already sorted) and
// superposes each step's vibration from the cached per-speaker gains — a
// schedule change costs O(steps·speakers) float adds, never a chain
// walk. Before the first step (and with no steps) the drive is quiet.
func (s *Stack) setSchedule(plan []ScheduleStep) {
	s.schedule = plan
	s.vibs = make([]hdd.Vibration, len(plan))
	for i, step := range plan {
		active := step.Active
		if active == nil {
			active = make([]bool, len(s.gains)) // nil step mask = all silent
		}
		s.vibs[i] = superposeComponents(len(s.gains),
			func(sp int) units.Frequency { return s.freqs[sp] },
			func(sp int) float64 { return s.gains[sp] },
			active)
	}
	s.step = -1
	s.drive.SetVibration(hdd.Quiet())
}

// advance moves the drive's vibration to the schedule step in effect at
// offset. Per stack, op start offsets are nondecreasing (an op starts at
// max(arrival, stack now) and the clock never rewinds), so the step
// index only moves forward and the scan resumes where the previous op
// left it.
func (s *Stack) advance(offset time.Duration) {
	step := s.step
	for step+1 < len(s.schedule) && s.schedule[step+1].At <= offset {
		step++
	}
	if step == s.step {
		return
	}
	s.step = step
	s.drive.SetVibration(s.vibs[step])
}

// Pool is the set of drive stacks one serving tier runs on: the cluster
// over one layout, the geo fleet over several. It owns construction,
// bulk preload with clock alignment, the per-epoch drain fan-out, attack
// schedules, and per-stack metrics; the tiers keep their own request
// arenas and their own fold and planning policies.
type Pool struct {
	stacks  []*Stack
	model   hdd.Model
	seed    int64
	net     netstore.Config
	workers int
	origin  time.Time
}

// NewPool returns an empty pool. Stack i's mechanics RNG is seeded with
// parallel.SeedFor(seed, 2i) and its netstore jitter with SeedFor(seed,
// 2i+1); net templates every stack's server (its Seed is overridden).
// workers bounds the drain fan-out (≤ 0 = all CPUs) and never changes
// results.
func NewPool(seed int64, net netstore.Config, workers int) *Pool {
	return &Pool{model: hdd.Barracuda500(), seed: seed, net: net, workers: workers}
}

// Add appends the next stack: a drive in tower slot slot of container ct
// of lay, with its per-speaker transfer gains cached.
func (p *Pool) Add(lay Layout, ct, slot int) error {
	asm, err := lay.Containers[ct].Scenario.Assembly()
	if err != nil {
		return err
	}
	if asm.Mount.Tower != nil {
		asm.Mount = enclosure.TowerMount(*asm.Mount.Tower, slot%asm.Mount.Tower.Slots)
	}
	idx := len(p.stacks)
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(p.model, clock, parallel.SeedFor(p.seed, 2*idx))
	if err != nil {
		return err
	}
	disk := blockdev.NewDisk(drive)
	net := p.net
	net.Seed = parallel.SeedFor(p.seed, 2*idx+1)
	s := &Stack{
		Container: ct,
		Server:    netstore.NewServer(disk, clock, net),
		asm:       asm,
		clock:     clock,
		drive:     drive,
		disk:      disk,
		freqs:     make([]units.Frequency, len(lay.Speakers)),
		gains:     make([]float64, len(lay.Speakers)),
		step:      -1,
	}
	s.runner.Clock = clock
	for sp := range lay.Speakers {
		s.freqs[sp], s.gains[sp] = lay.SpeakerAmp(sp, ct, asm, p.model)
	}
	p.stacks = append(p.stacks, s)
	return nil
}

// Len returns the number of stacks.
func (p *Pool) Len() int { return len(p.stacks) }

// Stack returns stack i.
func (p *Pool) Stack(i int) *Stack { return p.stacks[i] }

// SetSchedule programs the attack for stacks [first, first+n): steps are
// sorted by offset and superposed per stack from the cached gains.
func (p *Pool) SetSchedule(first, n int, steps []ScheduleStep) {
	plan := append([]ScheduleStep(nil), steps...)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	for _, s := range p.stacks[first : first+n] {
		s.setSchedule(plan)
	}
}

// Preload writes every object's stripe before serving starts (speakers
// silent): shard j of object o goes to stack place(o, j) as local key o.
// Stacks load concurrently on their own clocks; afterwards every clock
// is aligned to the slowest, which becomes the serving origin.
func (p *Pool) Preload(stripes [][][]byte, place func(o, j int) int) error {
	work := make([][][2]int, len(p.stacks)) // stack -> list of (object, shard)
	for o := range stripes {
		for j := range stripes[o] {
			si := place(o, j)
			work[si] = append(work[si], [2]int{o, j})
		}
	}
	_, err := parallel.Run(context.Background(), parallel.Indices(len(p.stacks)), p.workers,
		func(_ context.Context, si int, _ int) (struct{}, error) {
			s := p.stacks[si]
			for _, oj := range work[si] {
				_, resp := s.Server.HandleObjectShared(netstore.Put, oj[0], stripes[oj[0]][oj[1]])
				if resp.Err != nil {
					return struct{}{}, fmt.Errorf("preload object %d shard %d on drive %d: %w",
						oj[0], oj[1], si, resp.Err)
				}
			}
			return struct{}{}, nil
		})
	if err != nil {
		return err
	}
	p.origin = p.stacks[0].clock.Now()
	for _, s := range p.stacks[1:] {
		if t := s.clock.Now(); t.After(p.origin) {
			p.origin = t
		}
	}
	for _, s := range p.stacks {
		if dt := p.origin.Sub(s.clock.Now()); dt > 0 {
			s.clock.Advance(dt)
		}
		s.origin = p.origin
	}
	return nil
}

// Preloaded reports whether Preload has fixed the serving origin.
func (p *Pool) Preloaded() bool { return !p.origin.IsZero() }

// Drain runs every stack's event queue to empty, fanned out across the
// pool's workers. Before each event the stack's clock has advanced to at
// least the event time and its vibration to the schedule step in force;
// dispatch then executes the op. Dispatch must touch only state owned by
// stack i or read-only state, so the fan-out never changes results.
func (p *Pool) Drain(dispatch func(i int, s *Stack, it sched.Item)) error {
	_, err := parallel.Run(context.Background(), parallel.Indices(len(p.stacks)), p.workers,
		func(_ context.Context, si int, _ int) (struct{}, error) {
			s := p.stacks[si]
			s.runner.Run(p.origin, func(it sched.Item) {
				s.advance(s.clock.Now().Sub(p.origin))
				dispatch(si, s, it)
			})
			return struct{}{}, nil
		})
	return err
}

// PublishMetrics pushes every stack's hdd, blockdev and netstore
// counters into reg. No-op on nil.
func (p *Pool) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, s := range p.stacks {
		s.drive.PublishMetrics(reg)
		s.disk.PublishMetrics(reg)
		s.Server.PublishMetrics(reg)
	}
}
