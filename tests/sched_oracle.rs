//! Oracle property test for the incremental SM scheduler (DESIGN.md §15).
//!
//! The ready set, wake-wheel, retry/promote membership sets, the parked
//! sets (MSHR-parked and reservation-blocked warps), and the cached
//! counters behind `Sm::next_work_at` are all *derived* state, updated at
//! warp state-transition sites. A stale membership bit cannot fail a unit
//! test directly — it only surfaces later as a timing divergence the
//! equivalence suite can't localize. So this suite drives a real `Sm`
//! through randomized offload/reservation/fill/ACK schedules and, **every
//! cycle**, diffs the incremental structures against a brute-force
//! full-slot rescan (`check_sched_consistency`) and the O(1) horizon
//! against the retired full-scan implementation (`next_work_at_oracle`).

use proptest::prelude::*;
use standardized_ndp::common::ids::{HmcId, Node, OffloadId};
use standardized_ndp::common::packet::{Packet, PacketKind};
use standardized_ndp::common::SystemConfig;
use standardized_ndp::compiler::{compile, CompilerConfig};
use standardized_ndp::gpu::{NdpEnv, Sm, SmConfig};
use standardized_ndp::workloads::{Scale, Workload, WORKLOADS};
use std::sync::Arc;

/// Deterministic xorshift coin-flipper standing in for the offload
/// controller: random offload decisions, and per-stack command credits
/// (one per offloaded block) that the test returns after random delays,
/// exercise every retry/block/promote transition site. Like the real
/// buffer manager, a denial has no side effects.
struct RandEnv {
    x: u64,
    offload_pct: u64,
    credits: Vec<u64>,
}

impl RandEnv {
    fn new(seed: u64, offload_pct: u64, credits_per_stack: u64) -> Self {
        RandEnv {
            x: seed | 1,
            offload_pct,
            credits: vec![credits_per_stack; 8],
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn flip(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

impl NdpEnv for RandEnv {
    fn decide_offload(&mut self, _sm: u16, _block: u16) -> bool {
        let p = self.offload_pct;
        self.flip(p)
    }
    fn try_reserve(&mut self, hmc: HmcId, _l: usize, _s: usize) -> bool {
        let c = &mut self.credits[hmc.0 as usize];
        if *c == 0 {
            return false;
        }
        *c -= 1;
        true
    }
    fn note_block_lines(&mut self, _b: u16, _l: u32, _h: u32) {}
    fn note_block_done(&mut self, _b: u16, _i: u32) {}
    fn note_wta_line(&mut self, _h: standardized_ndp::common::ids::HmcId) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random warp-state trajectories: the incremental scheduler state must
    /// match a full-slot rescan after every single cycle, and the O(1)
    /// horizon must equal the brute-force one at every query point.
    #[test]
    fn incremental_sched_matches_full_rescan(
        seed in any::<u64>(),
        wl_idx in 0usize..64,
        warps in 1u32..6,
        iters in 1u32..3,
        offload_pct in 0u64..=100,
        credits_per_stack in 1u64..4,
        credit_delay in 1u64..60,
        fill_delay in 1u64..40,
        ack_delay in 1u64..80,
        drop_ack_pct in 0u64..30,
    ) {
        let wl = WORKLOADS[wl_idx % WORKLOADS.len()];
        let program = wl.build(&Scale { warps, iters });
        let sys = SystemConfig::default();
        let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
        let mut sm = Sm::new(SmConfig::from_system(0, &sys), &sys, kernel);
        let mut env = RandEnv::new(seed, offload_pct, credits_per_stack);
        for w in 0..warps {
            sm.assign_warp(w, u32::MAX, w / 2);
        }

        // (due_cycle, packet) responses synthesized from the SM's output,
        // and (due_cycle, stack) credit returns: the NSU frees a block's
        // buffers some time after its command arrives, ACK dropped or not.
        let mut inbox: Vec<(u64, Packet)> = Vec::new();
        let mut returns: Vec<(u64, HmcId)> = Vec::new();
        for now in 0..2_000u64 {
            sm.check_sched_consistency().unwrap_or_else(|e| panic!("{e}"));
            prop_assert_eq!(
                sm.next_work_at(now),
                sm.next_work_at_oracle(now),
                "horizon diverged from full-scan oracle at cycle {}",
                now
            );
            sm.tick(now, &mut env);
            // Answer the SM's requests after randomized delays.
            while let Some(p) = sm.out.pop_front() {
                match p.kind {
                    PacketKind::ReadReq { addr, tag, .. } => {
                        let d = 1 + env.next() % fill_delay.max(1);
                        inbox.push((now + d, Packet::new(
                            Node::L2(0),
                            Node::Sm(0),
                            now,
                            PacketKind::ReadResp { addr, bytes: 128, tag },
                        )));
                    }
                    PacketKind::OffloadCmd { token, .. } => {
                        let Node::Nsu(h) = p.dst else { panic!("CMD leaves retargeted") };
                        let d = 1 + env.next() % credit_delay;
                        returns.push((now + d, HmcId(h)));
                        if env.flip(drop_ack_pct) {
                            continue;
                        }
                        let d = 1 + env.next() % ack_delay.max(1);
                        inbox.push((now + d, Packet::new(
                            Node::Nsu(0),
                            Node::Sm(0),
                            now,
                            PacketKind::OffloadAck {
                                token,
                                id: OffloadId { sm: 0, warp: 0, seq: 0 },
                                regs_out: 0,
                                active: 32,
                                values: vec![],
                            },
                        )));
                    }
                    _ => {} // writes, RDF, WTA: sink
                }
            }
            let due: Vec<Packet> = {
                let mut due = Vec::new();
                inbox.retain(|(at, p)| {
                    if *at <= now {
                        due.push(p.clone());
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for p in due {
                sm.deliver(now, p, &mut env).expect("deliver");
            }
            returns.retain(|&(at, h)| {
                if at <= now {
                    env.credits[h.0 as usize] += 1;
                    sm.on_credit_return(h);
                    false
                } else {
                    true
                }
            });
            if sm.is_done() && inbox.is_empty() {
                break;
            }
        }
        sm.check_sched_consistency().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Mutation test: disable one wake-wheel update site (via the test-only
/// sabotage knob) and demand the consistency checker catch the stale
/// membership *by name* — proving the oracle actually guards every site.
#[test]
fn dropped_wake_wheel_update_is_caught_by_name() {
    let program = Workload::Vadd.build(&Scale { warps: 2, iters: 2 });
    let sys = SystemConfig::default();
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    let mut sm = Sm::new(SmConfig::from_system(0, &sys), &sys, kernel);
    sm.sabotage_drop_wheel = true;
    let mut env = RandEnv::new(7, 0, 1);
    sm.assign_warp(0, u32::MAX, 0);
    sm.assign_warp(1, u32::MAX, 0);
    for now in 0..200 {
        sm.tick(now, &mut env);
        if let Err(msg) = sm.check_sched_consistency() {
            assert!(
                msg.contains("wake_wheel"),
                "checker must name the stale structure, got: {msg}"
            );
            return;
        }
    }
    panic!("dropped wake-wheel update site was never caught");
}

/// Mutation test: skip the unpark-on-fill step (via the test-only
/// sabotage knob) on an SM whose divergent loads overrun its L1 MSHRs, and
/// demand the checker name the parked set left stale by the fill.
#[test]
fn dropped_unpark_on_fill_is_caught_by_name() {
    let program = Workload::Bfs.build(&Scale {
        warps: 16,
        iters: 2,
    });
    let sys = SystemConfig::default();
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    let mut sm = Sm::new(SmConfig::from_system(0, &sys), &sys, kernel);
    sm.sabotage_drop_unpark = true;
    let mut env = RandEnv::new(7, 0, 1);
    for w in 0..16 {
        sm.assign_warp(w, u32::MAX, w / 2);
    }
    let mut inbox: Vec<(u64, Packet)> = Vec::new();
    let mut parked = false;
    for now in 0..5_000 {
        sm.tick(now, &mut env);
        parked |= sm.parked_warps().0 > 0;
        while let Some(p) = sm.out.pop_front() {
            if let PacketKind::ReadReq { addr, tag, .. } = p.kind {
                let fill = PacketKind::ReadResp {
                    addr,
                    bytes: 128,
                    tag,
                };
                inbox.push((now + 50, Packet::new(Node::L2(0), Node::Sm(0), now, fill)));
            }
        }
        let (due, later): (Vec<_>, Vec<_>) = inbox.into_iter().partition(|(at, _)| *at <= now);
        inbox = later;
        for (_, p) in due {
            sm.deliver(now, p, &mut env).expect("deliver");
        }
        if let Err(msg) = sm.check_sched_consistency() {
            assert!(parked, "checker fired before any warp parked: {msg}");
            assert!(
                msg.contains("mshr_parked") && msg.contains("unpark-on-fill"),
                "checker must name the stale structure, got: {msg}"
            );
            return;
        }
    }
    panic!("dropped unpark-on-fill step was never caught (parked: {parked})");
}
