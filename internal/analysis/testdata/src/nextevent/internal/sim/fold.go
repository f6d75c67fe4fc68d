package simfold

// This file is the nextevent-analyzer wake fixture: a System mirroring the
// real sim.System, whose tileNext and hubNext fold the cores and some port
// channels but forget a component, an interface-typed client slice and one
// channel of the port bundle. A decoy type with its own tileNext, declared
// after System's, must not stand in for System's wakes.

type core struct{ wake int64 }

func (c *core) Tick(now int64)            {}
func (c *core) NextEvent(now int64) int64 { return c.wake }

type dma struct{ wake int64 }

func (d *dma) Tick(now int64)            {}
func (d *dma) NextEvent(now int64) int64 { return d.wake }

// link is one channel; port bundles a client's channels.
type link struct{ at int64 }

func (l *link) NextEvent(now int64) int64 { return l.at }

type port struct {
	A, B, C *link
	name    string // ok: not a channel
}

func (p *port) NextEvent(now int64) int64 { return p.A.NextEvent(now) }

// Client is a port driver known only through its interface.
type Client interface {
	Tick(now int64)
	NextEvent(now int64) int64
}

// System wakes its cores and ports but forgot the DMA engine, the agents
// and every port's C channel.
type System struct {
	Cores  []*core
	DMA    *dma     // want `System field DMA implements NextEvent but is folded into neither tileNext nor hubNext`
	Agents []Client // want `System field Agents implements NextEvent but is folded into neither tileNext nor hubNext`
	ports  []*port  // want `System field ports: its C implements NextEvent but is folded into neither tileNext nor hubNext`

	now int64 // ok: not a component
}

func (s *System) tileNext(i int, last int64) int64 {
	next := s.Cores[i].NextEvent(last)
	if t := s.ports[i].B.NextEvent(last); t < next {
		next = t
	}
	return next
}

func (s *System) hubNext(last int64) int64 {
	next := int64(1 << 62)
	for _, p := range s.ports {
		if t := p.A.NextEvent(last); t < next {
			next = t
		}
	}
	return next
}

// bus is the decoy: its tileNext consults the fields System forgot.
type bus struct {
	DMA    *dma
	Agents []Client
}

func (b *bus) tileNext(i int, last int64) int64 {
	return b.DMA.NextEvent(last) + b.Agents[i].NextEvent(last)
}
