package simfold

// This file is the nextevent-analyzer fold fixture: a System mirroring the
// real sim.System, with one component folded into nextEventCycle, one
// forgotten, and an interface-typed client slice forgotten too. A decoy type
// with its own nextEventCycle, declared after System's, must not stand in
// for System's fold.

type core struct{ wake int64 }

func (c *core) Tick(now int64)            {}
func (c *core) NextEvent(now int64) int64 { return c.wake }

type dma struct{ wake int64 }

func (d *dma) Tick(now int64)            {}
func (d *dma) NextEvent(now int64) int64 { return d.wake }

// Client is a port driver known only through its interface.
type Client interface {
	Tick(now int64)
	NextEvent(now int64) int64
}

// System folds Cores but forgot the DMA engine and the agents.
type System struct {
	Cores  []*core
	DMA    *dma     // want `System field DMA implements NextEvent but is not folded into nextEventCycle`
	Agents []Client // want `System field Agents implements NextEvent but is not folded into nextEventCycle`

	now int64 // ok: not a component
}

func (s *System) nextEventCycle(last int64) int64 {
	next := int64(1 << 62)
	for _, c := range s.Cores {
		if t := c.NextEvent(last); t < next {
			next = t
		}
	}
	return next
}

// bus is the decoy: its fold consults only its own field.
type bus struct {
	DMA *dma
}

func (b *bus) nextEventCycle(last int64) int64 {
	return b.DMA.NextEvent(last)
}
