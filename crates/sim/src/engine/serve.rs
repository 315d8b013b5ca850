//! Coherent protocol paths: single-line reads, writes (RFO), NT stores,
//! the memory/mcache flows, and fills/evictions/state preparation.
//!
//! Every observable action is emitted exactly once through the
//! [`crate::engine::observe::ObserverHub`] at the point the engine has
//! already computed its payload; nothing here consults an observer for
//! control flow, so timings and counters are bit-identical whether the
//! hub is empty or full.

use crate::cache::Insert;
use crate::directory::LineState;
use crate::engine::observe::{gstate_tag, src_tag};
use crate::machine::{AccessOutcome, Machine, ServedBy};
use crate::mcache::McacheOutcome;
use crate::mesh::StopId;
use crate::protocol::{self, Outcome, Request};
use crate::SimTime;
use knl_arch::{Backing, CoreId, MemTarget, TileId, LINE_SHIFT};

/// A read from memory: when the data is ready at the device, the stop it
/// leaves from, and whether the memory-side cache supplied it. Sixteen
/// bytes, so even the out-of-line cache flow returns it in registers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemRead {
    pub(crate) ready: SimTime,
    pub(crate) from: StopId,
    pub(crate) mcache_hit: bool,
}

impl MemRead {
    /// The provenance of this read of a line with `backing`.
    pub(crate) fn served_by(self, backing: Backing) -> ServedBy {
        match backing.mcache_edc {
            Some(edc) if self.mcache_hit => ServedBy::McacheHit { edc },
            _ => ServedBy::Memory(backing.target),
        }
    }
}

impl Machine {
    /// The one place the engine steps a directory entry: run `request`
    /// from `tile` through the protocol table (plus the transition hook,
    /// if one is set) and emit the [`crate::ProtocolEvent::Dir`] event
    /// carrying the request, the tile, the outcome, and the entry's own
    /// pre-state tag and post-state. Returns what
    /// the transition did and the entry's version after it (the stamp the
    /// requester's fills carry), so no caller looks the entry up again;
    /// `None` when the directory has no entry for `line`: nothing to
    /// transition.
    ///
    /// Forced inline (as is `transition`, by hint): `request` is a constant
    /// at every call site, so each copy folds the table down to that
    /// request's arms. Left as one shared function the ownership ping-pong
    /// of the `remote_transfer` bench case ran 61 ns against 55 ns.
    #[inline(always)]
    fn dir_step(
        &mut self,
        time: SimTime,
        line: u64,
        request: Request,
        tile: TileId,
        counted: bool,
    ) -> Option<(Outcome, u32)> {
        let kind = self.cfg.protocol;
        let entry = self.dir.get_mut(line)?;
        let pre = *entry;
        let mut out = protocol::transition(kind, entry, request, tile);
        if let Some(hook) = &self.transition_hook {
            hook(kind, request, tile, &pre, entry, &mut out);
        }
        let from = gstate_tag(&pre.state);
        self.hub
            .dir_transition(time, line, from, request, tile, out, entry, counted);
        Some((out, entry.version))
    }

    pub(crate) fn read(
        &mut self,
        core: CoreId,
        tile: TileId,
        line: u64,
        addr: u64,
        now: SimTime,
    ) -> AccessOutcome {
        let (ver, tile_state) = self
            .dir
            .get(line)
            .map_or((0, LineState::Invalid), |e| (e.version, e.state_of(tile)));

        // L1 hit.
        if self.l1[core.0 as usize].lookup(line, ver) {
            self.counters.l1_hits += 1;
            self.hub.coherent_read(now, line, false);
            let dur = self.jitter(self.cfg.timing.l1_hit_ps, line);
            self.hub.serve(now + dur, line, 'R', 'L', 0, dur);
            return AccessOutcome {
                complete: now + dur,
                served_by: ServedBy::L1,
            };
        }

        // Same-tile L2 hit.
        if tile_state != LineState::Invalid && self.l2[tile.0 as usize].lookup(line, ver) {
            self.counters.l2_hits += 1;
            // A dirty copy (M, or O under the owner protocols) pays the
            // write-back-bookkeeping extra.
            let is_m = matches!(tile_state, LineState::Modified | LineState::Owned);
            let is_e = tile_state == LineState::Exclusive;
            let lat = self.cfg.timing.tile_l2_ps(is_m, is_e);
            // Port occupancy bounds same-tile bandwidth.
            let port = self.cfg.timing.l2_port_ps_per_line
                + if is_m {
                    self.cfg.timing.l2_port_m_extra_ps
                } else {
                    0
                };
            let start = now.max(self.l2_port_busy[tile.0 as usize]);
            self.l2_port_busy[tile.0 as usize] = start + port;
            let complete = (start + self.jitter(lat, line)).max(start + port);
            self.l1_fill(core, line, ver);
            self.hub.coherent_read(now, line, false);
            self.hub.serve(complete, line, 'R', 'T', 0, complete - now);
            return AccessOutcome {
                complete,
                served_by: ServedBy::TileL2(tile_state),
            };
        }

        // Remote path: requester -> home CHA.
        let (home, backing) = self.map.resolve(addr);
        let req = StopId::tile(tile);
        let home = StopId::tile(home);
        let t_req = self.mesh.traverse(
            req,
            home,
            now + self.cfg.timing.l2_miss_detect_ps + self.cfg.timing.inject_ps,
        );
        if self.hub.enabled() {
            self.hub.issue(now, line, 'R');
            self.hub.hop(t_req, line, 'q', self.mesh.hops(req, home));
        }

        let entry = self.dir.get_or_insert_default(line);
        let wait = entry.busy_until.saturating_sub(t_req);
        let t_svc = t_req + wait + self.cfg.timing.cha_lookup_ps;
        entry.busy_until = t_req + wait + self.cfg.timing.cha_line_serialize_ps;

        let supplier = entry.supplier().filter(|&s| s != tile);
        let (outcome, ver) = if let Some(sup) = supplier {
            let st = entry.state_of(sup);
            let extra = match st {
                // A dirty supplier (M, or O under the owner protocols) pays
                // the same forced-readout extra.
                LineState::Modified | LineState::Owned => self.cfg.timing.remote_m_extra_ps,
                LineState::Exclusive => self.cfg.timing.remote_e_extra_ps,
                LineState::Shared | LineState::Forward | LineState::Invalid => 0,
            };
            let sup_stop = StopId::tile(sup);
            let t_data = self
                .mesh
                .traverse(home, sup_stop, t_svc + self.cfg.timing.inject_ps)
                + self.cfg.timing.remote_l2_ps
                + extra;
            let complete = self
                .mesh
                .traverse(sup_stop, req, t_data + self.cfg.timing.inject_ps)
                + self.cfg.timing.fill_ps;
            self.counters.remote_cache_hits += 1;
            let (grant, ver) = self
                .dir_step(t_svc, line, Request::Read, tile, true)
                .expect("entry exists");
            if grant.writeback {
                // Forced write-back downgrades M to a clean state (MESIF:
                // M→S; the owner protocols keep the dirty line cached as O
                // and flush nothing here).
                self.counters.writebacks += 1;
            }
            self.hub.coherent_read(t_svc, line, false);
            let jc = now + self.jitter(complete - now, line);
            if self.hub.enabled() {
                let hops = self.mesh.hops(req, sup_stop);
                self.hub
                    .hop(t_data, line, 'd', self.mesh.hops(home, sup_stop));
                self.hub.hop(complete, line, 'r', hops);
                if grant.writeback {
                    self.hub.writeback(complete, line, false);
                }
                self.hub.serve(jc, line, 'R', st.letter(), hops, jc - now);
            }
            let outcome = AccessOutcome {
                complete: jc,
                served_by: ServedBy::RemoteCache {
                    holder: sup,
                    state: st,
                },
            };
            (outcome, ver)
        } else {
            let read = self.memory_read(backing, line, home, t_svc);
            let complete =
                self.mesh
                    .traverse(read.from, req, read.ready + self.cfg.timing.inject_ps)
                    + self.cfg.timing.fill_ps;
            let (grant, ver) = self
                .dir_step(t_svc, line, Request::Read, tile, true)
                .expect("entry exists");
            // A dirty copy elsewhere would have been the supplier above.
            debug_assert!(!grant.writeback, "memory served a line cached dirty");
            self.hub.coherent_read(t_svc, line, true);
            let jc = now + self.jitter(complete - now, line);
            let served_by = read.served_by(backing);
            if self.hub.enabled() {
                let hops = self.mesh.hops(req, read.from);
                self.hub.hop(complete, line, 'r', hops);
                self.hub
                    .serve(jc, line, 'R', src_tag(served_by), hops, jc - now);
            }
            let outcome = AccessOutcome {
                complete: jc,
                served_by,
            };
            (outcome, ver)
        };

        self.l2_fill(tile, line, ver);
        self.l1_fill(core, line, ver);
        outcome
    }

    pub(crate) fn write(
        &mut self,
        core: CoreId,
        tile: TileId,
        line: u64,
        addr: u64,
        now: SimTime,
    ) -> AccessOutcome {
        let (tile_state, ver) = self
            .dir
            .get(line)
            .map_or((LineState::Invalid, 0), |e| (e.state_of(tile), e.version));

        // Silent upgrade: tile already owns the line (M or E).
        if matches!(tile_state, LineState::Modified | LineState::Exclusive)
            && self.l2[tile.0 as usize].lookup(line, ver)
        {
            let in_l1 = self.l1[core.0 as usize].lookup(line, ver);
            let lat = if in_l1 {
                self.counters.l1_hits += 1;
                self.cfg.timing.l1_hit_ps
            } else {
                self.counters.l2_hits += 1;
                self.cfg.timing.tile_l2_ps(
                    tile_state == LineState::Modified,
                    tile_state == LineState::Exclusive,
                )
            };
            // The version advances (sibling-core L1 copies die); re-stamp
            // the writer's own caches.
            let (_, ver) = self
                .dir_step(now, line, Request::Write, tile, true)
                .expect("owned line has entry");
            self.l2_fill(tile, line, ver);
            self.l1_fill(core, line, ver);
            let dur = self.jitter(lat, line);
            self.hub
                .serve(now + dur, line, 'W', if in_l1 { 'L' } else { 'T' }, 0, dur);
            return AccessOutcome {
                complete: now + dur,
                served_by: if in_l1 {
                    ServedBy::L1
                } else {
                    ServedBy::TileL2(tile_state)
                },
            };
        }

        // RFO through the home directory.
        let (home, backing) = self.map.resolve(addr);
        let req = StopId::tile(tile);
        let home = StopId::tile(home);
        let t_req = self.mesh.traverse(
            req,
            home,
            now + self.cfg.timing.l2_miss_detect_ps + self.cfg.timing.inject_ps,
        );
        if self.hub.enabled() {
            self.hub.issue(now, line, 'W');
            self.hub.hop(t_req, line, 'q', self.mesh.hops(req, home));
        }

        let entry = self.dir.get_or_insert_default(line);
        let wait = entry.busy_until.saturating_sub(t_req);
        let t_svc = t_req + wait + self.cfg.timing.cha_lookup_ps;
        entry.busy_until = t_req + wait + self.cfg.timing.cha_line_serialize_ps;

        // Under write-update (Dragon) every valid copy is current, so a
        // holder's write needs permission only — never a supplier fetch.
        // The invalidation protocols fetch from the supplier even while
        // holding S (MESIF: the F copy answers).
        let fetches = self.cfg.protocol.invalidation_based() || tile_state == LineState::Invalid;
        let supplier = entry.supplier().filter(|&s| s != tile && fetches);

        // `from`: the stop the data (or, for an upgrade, the permission)
        // comes back from.
        let (data_ready, served_by, from) = if let Some(sup) = supplier {
            let st = entry.state_of(sup);
            let extra = match st {
                LineState::Modified | LineState::Owned => self.cfg.timing.remote_m_extra_ps,
                LineState::Exclusive => self.cfg.timing.remote_e_extra_ps,
                LineState::Shared | LineState::Forward | LineState::Invalid => 0,
            };
            let sup_stop = StopId::tile(sup);
            let at_sup = self
                .mesh
                .traverse(home, sup_stop, t_svc + self.cfg.timing.inject_ps)
                + self.cfg.timing.remote_l2_ps
                + extra;
            let ready = self
                .mesh
                .traverse(sup_stop, req, at_sup + self.cfg.timing.inject_ps);
            self.counters.remote_cache_hits += 1;
            if self.hub.enabled() {
                self.hub
                    .hop(at_sup, line, 'd', self.mesh.hops(home, sup_stop));
                self.hub
                    .hop(ready, line, 'r', self.mesh.hops(sup_stop, req));
            }
            let served = ServedBy::RemoteCache {
                holder: sup,
                state: st,
            };
            (ready, served, sup_stop)
        } else if tile_state != LineState::Invalid {
            // Upgrade from S/F: data already local; only permission needed.
            let ready = self
                .mesh
                .traverse(home, req, t_svc + self.cfg.timing.inject_ps);
            (ready, ServedBy::TileL2(tile_state), home)
        } else {
            let read = self.memory_read(backing, line, home, t_svc);
            let ready = self
                .mesh
                .traverse(read.from, req, read.ready + self.cfg.timing.inject_ps);
            if self.hub.enabled() {
                self.hub
                    .hop(ready, line, 'r', self.mesh.hops(read.from, req));
            }
            (ready, read.served_by(backing), read.from)
        };

        let (grant, ver) = self
            .dir_step(t_svc, line, Request::Write, tile, true)
            .expect("entry exists");
        self.counters.invalidations += grant.invalidated as u64;
        self.counters.updates += grant.updated as u64;
        let inv_cost = grant.invalidated as u64 * self.cfg.timing.invalidate_per_sharer_ps
            + grant.updated as u64 * self.cfg.timing.update_per_sharer_ps;

        let complete = data_ready + inv_cost + self.cfg.timing.fill_ps;
        self.l2_fill(tile, line, ver);
        self.l1_fill(core, line, ver);
        let jc = now + self.jitter(complete - now, line);
        if self.hub.enabled() {
            if grant.invalidated > 0 {
                self.hub.inv(t_svc, line, grant.invalidated as u32);
            }
            if grant.updated > 0 {
                self.hub.update(t_svc, line, grant.updated as u32);
            }
            let hops = self.mesh.hops(req, from);
            self.hub
                .serve(jc, line, 'W', src_tag(served_by), hops, jc - now);
        }
        AccessOutcome {
            complete: jc,
            served_by,
        }
    }

    pub(crate) fn nt_store(
        &mut self,
        tile: TileId,
        line: u64,
        addr: u64,
        now: SimTime,
    ) -> AccessOutcome {
        self.counters.nt_stores += 1;
        self.hub.issue(now, line, 'N');
        // Sweep any cached copies (rare for streaming workloads). The
        // invalidation protocols send one invalidation to *each* holder —
        // the same accounting as the RFO path, which the coherence checker
        // reconciles exactly; Dragon refreshes each copy in place instead.
        let mut extra = 0;
        if self.dir.get(line).is_some_and(|e| e.num_holders() > 0) {
            let (sweep, _) = self
                .dir_step(now, line, Request::NtStore, tile, true)
                .expect("entry just seen");
            self.counters.invalidations += sweep.invalidated as u64;
            self.counters.updates += sweep.updated as u64;
            extra = sweep.invalidated as u64 * self.cfg.timing.invalidate_per_sharer_ps
                + sweep.updated as u64 * self.cfg.timing.update_per_sharer_ps;
            if sweep.invalidated > 0 {
                self.hub.inv(now, line, sweep.invalidated as u32);
            }
            if sweep.updated > 0 {
                self.hub.update(now, line, sweep.updated as u32);
            }
            if sweep.writeback {
                self.counters.writebacks += 1;
                self.hub.writeback(now, line, false);
            }
        }
        self.hub.nt_store(now, line);
        // Posted: the core only pays the issue cost; the device is occupied
        // in the background. The accept time is returned to let callers
        // throttle on write-combining-buffer capacity.
        let req = StopId::tile(tile);
        let at = now + self.cfg.timing.issue_gap_ps;
        let accept = self.memory_write(self.map.backing(addr), line, req, at);
        AccessOutcome {
            complete: accept + extra,
            served_by: ServedBy::Posted,
        }
    }

    // ------------------------------------------------------------------
    // Memory paths
    // ------------------------------------------------------------------

    /// Read `line` from memory, whose backing the caller's `resolve`
    /// found; `from` is where the request departs (home CHA).
    ///
    /// Inlined into every caller: a line no memory-side cache fronts is a
    /// traversal and a device read; the cache flow is out of line.
    #[inline(always)]
    pub(crate) fn memory_read(
        &mut self,
        backing: Backing,
        line: u64,
        from: StopId,
        t0: SimTime,
    ) -> MemRead {
        let target = backing.target;
        if let Some(edc) = backing.mcache_edc {
            return self.mcache_read(target, edc, line, from, t0);
        }
        let stop = StopId::device(target);
        let arrive = self
            .mesh
            .traverse(from, stop, t0 + self.cfg.timing.inject_ps);
        let dev = target.device_index();
        if self.hub.enabled() {
            let depth = self.devices[dev].backlog_lines(arrive);
            self.hub.dev_enter(arrive, line, dev as u8, false, depth);
        }
        let ready = self.devices[dev].read(arrive);
        self.hub.dev_leave(ready, line, dev as u8);
        match target {
            MemTarget::Ddr { .. } => self.counters.ddr_accesses += 1,
            MemTarget::Mcdram { .. } => self.counters.mcdram_accesses += 1,
        }
        MemRead {
            ready,
            from: stop,
            mcache_hit: false,
        }
    }

    /// [`Machine::memory_read`] of a DDR line `target` whose memory-side
    /// cache is EDC `edc`.
    #[inline(never)]
    fn mcache_read(
        &mut self,
        target: MemTarget,
        edc: u8,
        line: u64,
        from: StopId,
        t0: SimTime,
    ) -> MemRead {
        let edc_stop = StopId::edc(edc);
        let arrive = self
            .mesh
            .traverse(from, edc_stop, t0 + self.cfg.timing.inject_ps)
            + self.cfg.timing.mcache_tag_ps;
        let edc_dev = 6 + edc as usize;
        match self.mcache.access(line, false) {
            McacheOutcome::Hit => {
                self.counters.mcache_hits += 1;
                self.counters.mcdram_accesses += 1;
                if self.hub.enabled() {
                    let depth = self.devices[edc_dev].backlog_lines(arrive);
                    self.hub.mcache(arrive, line, edc, true);
                    self.hub
                        .dev_enter(arrive, line, edc_dev as u8, false, depth);
                }
                let ready = self.devices[edc_dev].read(arrive);
                self.hub.dev_leave(ready, line, edc_dev as u8);
                MemRead {
                    ready,
                    from: edc_stop,
                    mcache_hit: true,
                }
            }
            outcome @ (McacheOutcome::MissCold
            | McacheOutcome::MissCleanEvict { .. }
            | McacheOutcome::MissDirtyEvict { .. }) => {
                self.counters.mcache_misses += 1;
                self.counters.ddr_accesses += 1;
                // The memory-side cache fronts DDR only.
                let ddr_stop = StopId::device(target);
                let at_ddr =
                    self.mesh
                        .traverse(edc_stop, ddr_stop, arrive + self.cfg.timing.inject_ps);
                let ddr_dev = target.device_index();
                if self.hub.enabled() {
                    self.hub.mcache(arrive, line, edc, false);
                    self.hub
                        .hop(at_ddr, line, 'd', self.mesh.hops(edc_stop, ddr_stop));
                    let depth = self.devices[ddr_dev].backlog_lines(at_ddr);
                    self.hub
                        .dev_enter(at_ddr, line, ddr_dev as u8, false, depth);
                }
                let ready = self.devices[ddr_dev].read(at_ddr);
                self.hub.dev_leave(ready, line, ddr_dev as u8);
                // Fill the cache line in the background ("data read from
                // DDR is sent to MCDRAM and the requesting tile
                // simultaneously").
                if self.hub.enabled() {
                    let depth = self.devices[edc_dev].backlog_lines(ready);
                    self.hub.dev_enter(ready, line, edc_dev as u8, true, depth);
                }
                self.devices[edc_dev].write(ready);
                if let McacheOutcome::MissDirtyEvict { victim_line } = outcome {
                    // Victim write-back to DDR (plus the L2 snoop the
                    // paper describes; both happen off the critical path).
                    let victim_addr = victim_line << LINE_SHIFT;
                    let vt = self.map.mem_target(victim_addr);
                    if self.hub.enabled() {
                        let depth = self.devices[vt.device_index()].backlog_lines(ready);
                        self.hub.dev_enter(
                            ready,
                            victim_line,
                            vt.device_index() as u8,
                            true,
                            depth,
                        );
                    }
                    self.hub.writeback(ready, victim_line, true);
                    self.devices[vt.device_index()].write(ready);
                    self.counters.writebacks += 1;
                }
                MemRead {
                    ready,
                    from: ddr_stop,
                    mcache_hit: false,
                }
            }
        }
    }

    /// Write `line` to memory (write-back or NT store) from stop `from`;
    /// its backing is the caller's [`knl_arch::AddressMap::backing`] or a
    /// stream's run. Returns accept time. Inlined like
    /// [`Machine::memory_read`], the memory-side cache flow out of line.
    #[inline(always)]
    pub(crate) fn memory_write(
        &mut self,
        backing: Backing,
        line: u64,
        from: StopId,
        t0: SimTime,
    ) -> SimTime {
        let Backing { target, mcache_edc } = backing;
        if let Some(edc) = mcache_edc {
            return self.mcache_write(edc, line, from, t0);
        }
        let arrive =
            self.mesh
                .traverse(from, StopId::device(target), t0 + self.cfg.timing.inject_ps);
        let dev = target.device_index();
        if self.hub.enabled() {
            let depth = self.devices[dev].backlog_lines(arrive);
            self.hub.dev_enter(arrive, line, dev as u8, true, depth);
        }
        match target {
            MemTarget::Ddr { .. } => self.counters.ddr_accesses += 1,
            MemTarget::Mcdram { .. } => self.counters.mcdram_accesses += 1,
        }
        let accept = self.devices[dev].write(arrive);
        self.hub.dev_leave(accept, line, dev as u8);
        accept
    }

    /// [`Machine::memory_write`] of a DDR line whose memory-side cache is
    /// EDC `edc`: write-backs and NT stores land in the MCDRAM cache
    /// directly.
    #[inline(never)]
    fn mcache_write(&mut self, edc: u8, line: u64, from: StopId, t0: SimTime) -> SimTime {
        let arrive = self
            .mesh
            .traverse(from, StopId::edc(edc), t0 + self.cfg.timing.inject_ps)
            + self.cfg.timing.mcache_tag_ps;
        let edc_dev = 6 + edc as usize;
        if self.hub.enabled() {
            let depth = self.devices[edc_dev].backlog_lines(arrive);
            self.hub.dev_enter(arrive, line, edc_dev as u8, true, depth);
        }
        match self.mcache.access(line, true) {
            McacheOutcome::Hit | McacheOutcome::MissCold | McacheOutcome::MissCleanEvict { .. } => {
                self.counters.mcdram_accesses += 1;
                let accept = self.devices[edc_dev].write(arrive);
                self.hub.dev_leave(accept, line, edc_dev as u8);
                accept
            }
            McacheOutcome::MissDirtyEvict { victim_line } => {
                self.counters.mcdram_accesses += 1;
                let accept = self.devices[edc_dev].write(arrive);
                self.hub.dev_leave(accept, line, edc_dev as u8);
                let victim_addr = victim_line << LINE_SHIFT;
                let vt = self.map.mem_target(victim_addr);
                // The dirty victim must drain to DDR before the cache
                // can accept the new line: evictions backpressure the
                // write stream (this is why cache-mode write bandwidth
                // collapses toward the DDR write rate in Table II).
                if self.hub.enabled() {
                    let depth = self.devices[vt.device_index()].backlog_lines(accept);
                    self.hub
                        .dev_enter(accept, victim_line, vt.device_index() as u8, true, depth);
                }
                self.hub.writeback(accept, victim_line, true);
                let drained = self.devices[vt.device_index()].write(accept);
                self.hub
                    .dev_leave(drained, victim_line, vt.device_index() as u8);
                self.counters.writebacks += 1;
                drained
            }
        }
    }

    // ------------------------------------------------------------------
    // Fills & evictions
    // ------------------------------------------------------------------

    pub(crate) fn l1_fill(&mut self, core: CoreId, line: u64, version: u32) {
        // L1 evictions are silent (the tile L2 retains the line).
        let _ = self.l1[core.0 as usize].insert(line, version);
    }

    pub(crate) fn l2_fill(&mut self, tile: TileId, line: u64, version: u32) {
        if let Insert::Evicted(victim) = self.l2[tile.0 as usize].insert(line, version) {
            let when = self.l2_port_busy[tile.0 as usize];
            let evicted = self.dir_step(when, victim, Request::Evict, tile, true);
            if evicted.is_some_and(|(e, _)| e.writeback) {
                // Dirty victim: write back in the background.
                self.counters.writebacks += 1;
                self.hub.writeback(when, victim, false);
                let backing = self.map.backing(victim << LINE_SHIFT);
                self.memory_write(backing, victim, StopId::tile(tile), when);
            }
        }
    }

    /// Explicitly drop `addr`'s line from `core`'s tile (both L1s and the
    /// shared L2), updating the directory; a dirty copy is written back in
    /// the background. Returns the core-visible completion time. This is
    /// the [`crate::ops::Op::Evict`] primitive the coherence fuzzer uses to
    /// exercise eviction paths without overflowing the tag arrays.
    pub fn evict_line(&mut self, core: CoreId, addr: u64, now: SimTime) -> SimTime {
        let line = addr >> LINE_SHIFT;
        let tile = core.tile();
        self.hub.set_tile(tile.0);
        for c in tile.cores() {
            if (c.0 as usize) < self.l1.len() {
                self.l1[c.0 as usize].remove(line);
            }
        }
        self.l2[tile.0 as usize].remove(line);
        let evicted = self.dir_step(now, line, Request::Evict, tile, true);
        if evicted.is_some_and(|(e, _)| e.writeback) {
            self.counters.writebacks += 1;
            self.hub.writeback(now, line, false);
            let at = now + self.cfg.timing.issue_gap_ps;
            self.memory_write(self.map.backing(addr), line, StopId::tile(tile), at);
        }
        // The core pays only the flush issue; write-backs are posted.
        now + self.cfg.timing.l1_hit_ps
    }

    /// Pre-load a line into a tile's caches in a given state without timing
    /// (benchmark state preparation). `core` receives an L1 copy too. Every
    /// step is an uncounted directory transition with its own event, so
    /// occupancy observers see the line arrive exactly once.
    pub fn prepare_line(&mut self, core: CoreId, addr: u64, state: LineState) {
        let line = addr >> LINE_SHIFT;
        let tile = core.tile();
        let helper = TileId((tile.0 + 1) % self.cfg.active_tiles as u16);
        // Every state but the dirty ones is built up from a line nobody
        // caches: drop all copies first (under any protocol — this is a
        // flush, not an NT store, which Dragon would answer by updating).
        if !state.dirty() {
            if let Some(entry) = self.dir.get_mut(line) {
                let from = gstate_tag(&entry.state);
                let flush = Outcome {
                    requester: LineState::Invalid,
                    invalidated: entry.num_holders(),
                    writeback: entry.invalidate_all(),
                    updated: 0,
                };
                let nt = Request::NtStore;
                self.hub
                    .dir_transition(0, line, from, nt, tile, flush, entry, false);
            }
        }
        let steps: &[(Request, TileId)] = match state {
            LineState::Invalid => return,
            LineState::Modified | LineState::Owned => &[(Request::Write, tile)],
            // First reader ⇒ E.
            LineState::Exclusive => &[(Request::Read, tile)],
            // Owner reads, then a helper tile reads, leaving the owner S
            // and the helper F; for an F request the roles swap.
            LineState::Shared => &[(Request::Read, tile), (Request::Read, helper)],
            LineState::Forward => &[(Request::Read, helper), (Request::Read, tile)],
        };
        self.dir.get_or_insert_default(line);
        for &(request, by) in steps {
            self.dir_step(0, line, request, by, false);
        }
        let ver = self.dir.get(line).map_or(0, |e| e.version);
        self.l2_fill(tile, line, ver);
        self.l1_fill(core, line, ver);
    }
}

#[cfg(test)]
mod tests {
    use crate::directory::LineState;
    use crate::machine::{AccessKind, Machine, ServedBy};
    use knl_arch::{
        ClusterMode, CoreId, MachineConfig, MemTarget, MemoryMode, NumaKind, ProtocolKind, Schedule,
    };

    fn machine(cm: ClusterMode, mm: MemoryMode) -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(cm, mm));
        m.set_jitter(0);
        m
    }

    fn ddr_addr(m: &Machine) -> u64 {
        let mut a = m.arena();
        a.alloc(NumaKind::Ddr, 4096)
    }

    #[test]
    fn l1_hit_after_first_read() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let addr = ddr_addr(&m);
        let c = CoreId(0);
        let first = m.access(c, addr, AccessKind::Read, 0);
        assert!(matches!(first.served_by, ServedBy::Memory(_)));
        let second = m.access(c, addr, AccessKind::Read, first.complete);
        assert!(matches!(second.served_by, ServedBy::L1));
        assert_eq!(second.complete - first.complete, 3_800);
    }

    #[test]
    fn memory_read_latency_near_140ns() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let c = CoreId(0);
        let mut lat = Vec::new();
        for i in 0..200u64 {
            let addr = 4096 + i * 64;
            let out = m.access(c, addr, AccessKind::Read, i * 1_000_000);
            lat.push((out.complete - i * 1_000_000) as f64 / 1000.0);
        }
        let med = {
            let mut v = lat.clone();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        assert!((120.0..170.0).contains(&med), "DDR latency {med} ns");
    }

    #[test]
    fn mcdram_latency_higher_than_ddr() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let c = CoreId(0);
        let mut arena = m.arena();
        let ddr = arena.alloc(NumaKind::Ddr, 1 << 16);
        let mc = arena.alloc(NumaKind::Mcdram, 1 << 16);
        let mut tddr = 0u64;
        let mut tmc = 0u64;
        for i in 0..100u64 {
            let o = m.access(c, ddr + i * 64, AccessKind::Read, i * 1_000_000);
            tddr += o.complete - i * 1_000_000;
        }
        for i in 0..100u64 {
            let o = m.access(c, mc + i * 64, AccessKind::Read, (1000 + i) * 1_000_000);
            tmc += o.complete - (1000 + i) * 1_000_000;
        }
        assert!(
            tmc > tddr,
            "MCDRAM latency must exceed DDR ({tmc} vs {tddr})"
        );
    }

    #[test]
    fn same_tile_transfer_states() {
        // Table I: tile M 34 ns, E 18 ns, S/F 14 ns (plus port effects).
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let owner = CoreId(0);
        let reader = CoreId(1); // same tile
        for (state, expect_ns) in [
            (LineState::Modified, 34.0),
            (LineState::Exclusive, 18.0),
            (LineState::Shared, 14.0),
        ] {
            let addr = 1 << 16;
            m.reset_caches();
            m.prepare_line(owner, addr, state);
            let out = m.access(reader, addr, AccessKind::Read, 1_000_000);
            let ns = (out.complete - 1_000_000) as f64 / 1000.0;
            assert!(
                (ns - expect_ns).abs() < expect_ns * 0.35 + 2.0,
                "state {state:?}: got {ns} ns, expected ~{expect_ns}"
            );
            assert!(
                matches!(out.served_by, ServedBy::TileL2(_)),
                "{:?}",
                out.served_by
            );
        }
    }

    #[test]
    fn remote_transfer_slower_than_tile() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let owner = CoreId(10); // tile 5
        let reader = CoreId(0); // tile 0
        let addr = 1 << 16;
        m.prepare_line(owner, addr, LineState::Modified);
        let out = m.access(reader, addr, AccessKind::Read, 0);
        assert!(matches!(out.served_by, ServedBy::RemoteCache { .. }));
        let ns = out.complete as f64 / 1000.0;
        assert!((80.0..170.0).contains(&ns), "remote M latency {ns} ns");
    }

    #[test]
    fn remote_m_costs_more_than_sf() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let owner = CoreId(10);
        let reader = CoreId(0);
        let addr_m = 1 << 16;
        let addr_s = 2 << 16;
        m.prepare_line(owner, addr_m, LineState::Modified);
        m.prepare_line(owner, addr_s, LineState::Forward);
        let tm = m.access(reader, addr_m, AccessKind::Read, 0).complete;
        let ts = m
            .access(reader, addr_s, AccessKind::Read, 10_000_000)
            .complete
            - 10_000_000;
        assert!(tm > ts, "M {tm} must exceed S/F {ts}");
    }

    #[test]
    fn write_invalidates_readers() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let a = CoreId(0);
        let b = CoreId(10);
        let addr = 1 << 16;
        // b owns; a reads (both share); b writes (invalidates a); a reads again.
        m.prepare_line(b, addr, LineState::Modified);
        let r1 = m.access(a, addr, AccessKind::Read, 0);
        assert!(matches!(r1.served_by, ServedBy::RemoteCache { .. }));
        let w = m.access(b, addr, AccessKind::Write, r1.complete);
        let c0 = m.counters();
        assert!(c0.invalidations >= 1);
        let r2 = m.access(a, addr, AccessKind::Read, w.complete + 1_000_000);
        assert!(
            matches!(r2.served_by, ServedBy::RemoteCache { .. }),
            "invalidated reader must refetch, got {:?}",
            r2.served_by
        );
    }

    #[test]
    fn only_dragon_upgrades_any_copy() {
        // A clean sharer writes while another tile owns the line dirty (O).
        // Under write-update every valid copy is current, so Dragon needs
        // permission only; an invalidation protocol with the same directory
        // state (MOESI) fetches from the supplier.
        for (kind, upgrades) in [(ProtocolKind::Moesi, false), (ProtocolKind::Dragon, true)] {
            let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
            let mut m = Machine::new(cfg.with_protocol(kind));
            m.set_jitter(0);
            let (owner, sharer, addr) = (CoreId(0), CoreId(10), 1 << 16);
            let t = m.access(owner, addr, AccessKind::Write, 0).complete;
            let t = m.access(sharer, addr, AccessKind::Read, t).complete;
            assert_eq!(m.line_state(addr, owner.tile()), LineState::Owned, "{kind}");
            let w = m.access(sharer, addr, AccessKind::Write, t + 1_000_000);
            assert_eq!(
                matches!(w.served_by, ServedBy::TileL2(LineState::Shared)),
                upgrades,
                "{kind}: {:?}",
                w.served_by
            );
        }
    }

    #[test]
    fn contention_serializes_at_directory() {
        // N readers hitting the same M line nearly simultaneously: the last
        // completion grows roughly linearly with N (Table I: α + β·N).
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let owner = CoreId(0);
        let addr = 1 << 16;
        let last_for = |m: &mut Machine, n: usize| -> u64 {
            m.reset_caches();
            m.prepare_line(owner, addr, LineState::Modified);
            let mut worst = 0;
            for i in 0..n {
                let reader = Schedule::Scatter.core(i + 1, 64);
                let out = m.access(reader, addr, AccessKind::Read, 0);
                worst = worst.max(out.complete);
            }
            worst
        };
        let t8 = last_for(&mut m, 8);
        let t32 = last_for(&mut m, 32);
        let slope = (t32 - t8) as f64 / 24.0 / 1000.0;
        assert!(
            (20.0..50.0).contains(&slope),
            "contention slope {slope} ns/thread (expect ~34)"
        );
    }

    #[test]
    fn cache_mode_hits_and_misses() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Cache);
        let c = CoreId(0);
        let addr = 1 << 20;
        let miss = m.access(c, addr, AccessKind::Read, 0);
        assert!(matches!(
            miss.served_by,
            ServedBy::Memory(MemTarget::Ddr { .. })
        ));
        // Evict from L1+L2 is hard; instead touch a different line mapping
        // to the same mcache set? Simpler: re-read after clearing the tile
        // caches — the memory-side cache keeps its content.
        for l2 in &mut m.l1 {
            l2.clear();
        }
        for l2 in &mut m.l2 {
            l2.clear();
        }
        m.dir.clear();
        let hit = m.access(c, addr, AccessKind::Read, 10_000_000);
        assert!(
            matches!(hit.served_by, ServedBy::McacheHit { .. }),
            "{:?}",
            hit.served_by
        );
        // Cache-mode hit latency exceeds a flat DDR access (tag check +
        // MCDRAM's higher device latency), per Table II.
        let hit_ns = (hit.complete - 10_000_000) as f64 / 1000.0;
        assert!(
            (140.0..210.0).contains(&hit_ns),
            "cache-mode latency {hit_ns}"
        );
    }

    #[test]
    fn flat_mode_never_touches_disabled_mcache() {
        // In flat mode the memory-side cache has no sets. Every serve
        // path (reads, writes, NT stores, evictions — DDR and MCDRAM
        // targets alike) must take the cache flow only for a backing with
        // a memory-side-cache EDC, which the flat address map never hands
        // out: an access to the disabled cache would panic right here.
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        assert!(!m.mcache.enabled());
        let mut a = m.arena();
        let ddr = a.alloc(knl_arch::NumaKind::Ddr, 1 << 16);
        let mcdram = a.alloc(knl_arch::NumaKind::Mcdram, 1 << 16);
        let mut t = 0;
        for base in [ddr, mcdram] {
            for i in 0..32u64 {
                let c = CoreId((i % 8 * 2) as u16);
                let addr = base + i * 64;
                t = m.access(c, addr, AccessKind::Read, t).complete;
                t = m.access(c, addr, AccessKind::Write, t).complete;
                t = m.access(c, addr, AccessKind::NtStore, t).complete;
            }
        }
        t = m.evict_line(CoreId(0), ddr, t);
        m.reset_caches(); // must skip the disabled mcache
        m.access(CoreId(0), ddr, AccessKind::Read, t);
        assert_eq!(m.counters().mcache_hits + m.counters().mcache_misses, 0);
        assert_eq!(m.mcache_hit_rate(), 0.0);
    }

    #[test]
    fn nt_store_is_posted_and_counted() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let c = CoreId(0);
        let out = m.access(c, 4096, AccessKind::NtStore, 0);
        assert!(matches!(out.served_by, ServedBy::Posted));
        assert_eq!(m.counters().nt_stores, 1);
    }

    #[test]
    fn nt_store_invalidates_every_holder() {
        // An NT store destroys all cached copies; the invalidation counter
        // must reflect each one, exactly like an RFO (audit fix pinned by
        // the checker's counter reconciliation).
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let mut t = 0;
        for c in [CoreId(0), CoreId(2), CoreId(4)] {
            t = m.access(c, 4096, AccessKind::Read, t).complete;
        }
        let before = m.counters().invalidations;
        m.access(CoreId(6), 4096, AccessKind::NtStore, t);
        assert_eq!(m.counters().invalidations - before, 3);
    }
}
