package controller

import (
	"container/list"

	"ppd/internal/dynpdg"
	"ppd/internal/emulation"
)

// intervalEntry is everything the controller memoizes per emulated
// interval: the dynamic graph and the emulation result it was built from.
type intervalEntry struct {
	graph *dynpdg.Graph
	res   *emulation.Result
}

// intervalLRU is a bounded least-recently-used cache of interval entries
// keyed by (pid, prelogIdx). The log is immutable after the run, so there
// is no invalidation — the bound exists only to cap memory when a session
// wanders across many intervals (each entry holds a full trace and graph).
// Callers synchronize externally (the controller holds its mutex).
type intervalLRU struct {
	cap   int        // <= 0 means unbounded
	order *list.List // front = most recently used
	items map[[2]int]*list.Element
}

type lruSlot struct {
	key [2]int
	ent *intervalEntry
}

func newIntervalLRU(capacity int) *intervalLRU {
	return &intervalLRU{cap: capacity, order: list.New(), items: make(map[[2]int]*list.Element)}
}

// get returns the entry for key, promoting it to most-recently-used.
func (c *intervalLRU) get(key [2]int) (*intervalEntry, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruSlot).ent, true
}

// add inserts an entry, evicting the least-recently-used entries beyond
// the capacity bound. It returns how many entries were evicted.
func (c *intervalLRU) add(key [2]int, ent *intervalEntry) int {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruSlot).ent = ent
		c.order.MoveToFront(el)
		return 0
	}
	c.items[key] = c.order.PushFront(&lruSlot{key: key, ent: ent})
	return c.evict()
}

func (c *intervalLRU) evict() int {
	if c.cap <= 0 {
		return 0
	}
	n := 0
	for c.order.Len() > c.cap {
		el := c.order.Back()
		delete(c.items, el.Value.(*lruSlot).key)
		c.order.Remove(el)
		n++
	}
	return n
}

// drop empties the cache unconditionally (the bound is unchanged) and
// returns how many entries were released.
func (c *intervalLRU) drop() int {
	n := c.order.Len()
	c.order.Init()
	clear(c.items)
	return n
}

func (c *intervalLRU) len() int { return c.order.Len() }
