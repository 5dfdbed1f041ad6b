package reconfig

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/obs"
)

// Repartition resizes the controller's usable share of one fabric to
// `capacity` containers, live-migrating configured data paths that no
// longer sit inside the new share. The vfabric hypervisor calls it at an
// epoch boundary, with the tenant drained (no execution in flight):
//
//   - The reservation is set to fabric − capacity, so FreePRC/FreeCG and
//     the SelectionView immediately reflect the new share. Unlike Reserve,
//     a shrink never fails on pinned paths — the containers are being
//     taken away, so pinned paths are migrated or evicted instead.
//   - Shrink overflow is resolved by evictOverflow: monoCG contexts go
//     first (cheapest to reload), then unpinned paths, then pinned ones,
//     every evicted path logged for ISE invalidation via TakeInvalidated.
//   - `retained` is the number of containers shared between the old and
//     new windows (arch.Window.Overlap). Data paths pack oldest-first into
//     the window, so the oldest paths covering `retained` units stay put;
//     every newer surviving path sits on a container the tenant lost and
//     is re-streamed into its new share through the configuration port at
//     full destination reconfiguration cost (CRC retries included — a
//     migration that exhausts its retry budget declares the destination
//     container failed and the path is lost, logged for invalidation).
//
// It returns the number of paths migrated and the time the last migration
// completes (now if none). The caller advances its clock past nothing —
// migration cost is paid through port backlog, exactly like any other
// reconfiguration.
func (c *Controller) Repartition(kind arch.FabricKind, capacity, retained int, now arch.Cycles) (int, arch.Cycles, error) {
	var total int
	if kind == arch.FG {
		total = c.cfg.NPRC
	} else {
		total = c.cfg.NCG
	}
	if capacity < 0 || capacity > total {
		return 0, now, fmt.Errorf("reconfig: repartition capacity %d outside fabric of %d", capacity, total)
	}
	if retained < 0 {
		retained = 0
	}
	if retained > capacity {
		retained = capacity
	}
	c.Advance(now)
	if kind == arch.FG {
		c.reservedPRC = total - capacity
	} else {
		c.reservedCG = total - capacity
	}
	// Shrinks can leave more units occupied than the new share holds;
	// evict the overflow before deciding what migrates.
	c.evictOverflow(kind)

	// Surviving paths of this kind, oldest first: the retained prefix of
	// the old window keeps them configured, the rest moved containers.
	var buf [slotBuf]slot
	survivors := buf[:0]
	occupied := 0
	for _, s := range c.paths {
		if s.dp.Kind != kind {
			continue
		}
		survivors = append(survivors, s)
		occupied += s.dp.PRCs + s.dp.CGs
	}
	move := occupied - retained
	if move <= 0 {
		return 0, now, nil
	}
	sortOldestFirst(survivors)

	migrated := 0
	last := now
	kept := 0
	for _, s := range survivors {
		units := s.dp.PRCs + s.dp.CGs
		if kept+units <= retained {
			kept += units
			continue
		}
		ready, ok := c.schedule(s.dp, now)
		if !ok {
			// The destination container died under retry exhaustion: the
			// path is lost in transit.
			c.declareFailed(kind)
			if i := c.find(s.dp.ID); i >= 0 {
				c.removePath(i)
				c.stats.Evictions++
				c.invalidated = append(c.invalidated, s.dp.ID)
			}
			continue
		}
		// The migrated path is unconfigured until it finishes re-streaming:
		// moving its ready time forward can downgrade steering decisions,
		// so the change version must advance. (A survivor the overflow
		// eviction of an earlier failed migration took is gone: its copy
		// is still accounted as migrated, but no slot is left to move.)
		if i := c.find(s.dp.ID); i >= 0 {
			c.paths[i].ready = ready
		}
		c.version++
		c.stats.Migrations++
		c.stats.MigrationCycles += s.dp.ReconfigCycles()
		if ready > last {
			last = ready
		}
		if c.obsr != nil {
			c.obsr.Record(obs.Event{
				Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindMigrate,
				Path: string(s.dp.ID), Fabric: kind.String(),
				Ready: ready, Latency: s.dp.ReconfigCycles(),
			})
		}
		migrated++
	}
	return migrated, last, nil
}
