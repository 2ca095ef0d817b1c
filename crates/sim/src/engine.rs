//! The levelized bit-parallel gate evaluator.
//!
//! Evaluation is generic over [`LaneWord`]: the same gate loop runs on
//! single `u64` words (64 vectors per gate op, the public
//! differential-test path) or on [`Words<L>`] wide words (256/512
//! vectors per gate op, the campaign hot path).
//!
//! The loop walks an ascending list of gates. The good machine (and the
//! public `eval_*` API) walks every gate; a campaign's faulty machines
//! walk only their fault group's transitive fanout *cone* — the only
//! nets whose value can differ from the good machine — over a buffer
//! seeded from the good machine's words ([`Engine::eval_cone`]).

use crate::batch::{InputBatch, WideBatch};
use crate::error::SimError;
use crate::words::{LaneWord, Words};
use scdp_netlist::{GateKind, Netlist, StuckAtLine};

/// A netlist compiled for bit-parallel evaluation.
///
/// Construction copies the gate array into structure-of-arrays form
/// (kind / input-a / input-b as parallel `Vec`s, with an `Input` gate's
/// input-a slot holding its primary-input ordinal), builds a reader
/// (fanout) index and resolves the output roles: every bus named
/// `error` is an *alarm* bus, every other output bus is part of the
/// *result*. Netlists are already stored in topological order, so any
/// ascending gate list — the whole netlist or one fault cone — is
/// evaluated in a single forward sweep.
#[derive(Clone, Debug)]
pub struct Engine {
    kinds: Vec<GateKind>,
    a: Vec<u32>,
    b: Vec<u32>,
    /// Reader index in CSR form: the gates reading net `n` are
    /// `readers[reader_start[n]..reader_start[n + 1]]`.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
    input_bits: usize,
    result_nets: Vec<u32>,
    alarm_nets: Vec<u32>,
    name: String,
}

/// Packed verdict of one faulty batch against the good machine, already
/// restricted to the valid lanes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Lanes whose result-bus values differ from the good machine.
    pub wrong: u64,
    /// Lanes where an alarm net is asserted.
    pub alarm: u64,
    /// Mask of lanes that carry real vectors.
    pub mask: u64,
}

impl BatchOutcome {
    /// Lanes in the `ErrorUndetected` class (wrong result, silent
    /// checks) — the paper's uncovered situations.
    #[must_use]
    pub fn escapes(&self) -> u64 {
        self.wrong & !self.alarm
    }

    /// Situation counts in taxonomy order: `(correct_silent,
    /// correct_detected, error_detected, error_undetected)`.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let wrong = self.wrong & self.mask;
        let alarm = self.alarm & self.mask;
        let eu = (wrong & !alarm).count_ones() as u64;
        let ed = (wrong & alarm).count_ones() as u64;
        let cd = (!wrong & alarm & self.mask).count_ones() as u64;
        let cs = self.mask.count_ones() as u64 - eu - ed - cd;
        (cs, cd, ed, eu)
    }
}

/// Packed verdict of one faulty *wide* batch (`64 * L` vectors) against
/// the good machine. Campaign drivers consume it one limb at a time via
/// [`WideOutcome::limb`], in scalar-batch order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WideOutcome<const L: usize> {
    /// Lanes whose result-bus values differ from the good machine.
    pub wrong: Words<L>,
    /// Lanes where an alarm net is asserted.
    pub alarm: Words<L>,
    /// Mask of lanes that carry real vectors.
    pub mask: Words<L>,
}

impl<const L: usize> WideOutcome<L> {
    /// The verdict of limb `k` — exactly the [`BatchOutcome`] the
    /// scalar path would have produced for the `k`-th batch.
    #[must_use]
    pub fn limb(&self, k: usize) -> BatchOutcome {
        BatchOutcome {
            wrong: self.wrong.limb(k),
            alarm: self.alarm.limb(k),
            mask: self.mask.limb(k),
        }
    }
}

impl Engine {
    /// Compiles `netlist` for packed evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist holds state (Dff cells) — use
    /// [`crate::SeqEngine`] for cycle-accurate evaluation.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        assert!(
            !netlist.is_sequential(),
            "combinational engine cannot evaluate a sequential netlist; use SeqEngine"
        );
        let gates = netlist.gates();
        let n = gates.len();
        let mut kinds = Vec::with_capacity(n);
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut next_input = 0u32;
        let mut fanout = vec![0u32; n + 1];
        for g in gates {
            kinds.push(g.kind);
            if g.kind == GateKind::Input {
                a.push(next_input);
                next_input += 1;
            } else {
                a.push(g.a.map_or(0, |n| n.index() as u32));
            }
            b.push(g.b.map_or(0, |n| n.index() as u32));
            for net in [g.a, g.b].into_iter().flatten() {
                fanout[net.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fanout[i + 1] += fanout[i];
        }
        let reader_start = fanout.clone();
        let mut readers = vec![0u32; fanout[n] as usize];
        for (i, g) in gates.iter().enumerate() {
            for net in [g.a, g.b].into_iter().flatten() {
                let slot = &mut fanout[net.index()];
                readers[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        let mut result_nets = Vec::new();
        let mut alarm_nets = Vec::new();
        for (name, bus) in netlist.outputs() {
            let target = if name == "error" {
                &mut alarm_nets
            } else {
                &mut result_nets
            };
            target.extend(bus.iter().map(|n| n.index() as u32));
        }
        Self {
            kinds,
            a,
            b,
            reader_start,
            readers,
            input_bits: netlist.input_bits(),
            result_nets,
            alarm_nets,
            name: netlist.name().to_string(),
        }
    }

    /// The compiled design's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (= gates) in the compiled netlist.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary input bits expected per batch.
    #[must_use]
    pub fn input_bits(&self) -> usize {
        self.input_bits
    }

    /// Validates a fault list against the compiled netlist: every line
    /// must name an existing gate and, for pin faults, an input pin the
    /// gate actually has. Campaign drivers call this once per fault
    /// group *before* simulation so a malformed spec becomes a typed
    /// error instead of aborting a running (possibly sharded) campaign.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] found, in fault-list order.
    pub fn check_faults(&self, faults: &[StuckAtLine]) -> Result<(), SimError> {
        check_lines(&self.kinds, faults)
    }

    /// Evaluates one packed batch under `faults` into `values` (one
    /// word per net, reused across calls to avoid allocation).
    ///
    /// `faults` must be sorted by gate index (fault groups produced by
    /// [`crate::EngineCampaign`] are; assert-checked in debug builds).
    /// The fault-free fast path costs one table-dispatched bitwise op
    /// per gate per 64 vectors; faulted gates take a slow path that
    /// applies pin overrides before and the stem override after the
    /// gate function.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the netlist.
    pub fn eval_batch_into(
        &self,
        batch: &InputBatch,
        faults: &[StuckAtLine],
        values: &mut Vec<u64>,
    ) {
        self.eval_words_into(&batch.bits, faults, values);
    }

    /// Wide twin of [`Engine::eval_batch_into`]: evaluates `64 * L`
    /// vectors per forward pass. Same fault semantics, same sort
    /// requirement on `faults`.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the netlist.
    pub fn eval_wide_into<const L: usize>(
        &self,
        batch: &WideBatch<L>,
        faults: &[StuckAtLine],
        values: &mut Vec<Words<L>>,
    ) {
        self.eval_words_into(&batch.bits, faults, values);
    }

    /// The generic full pass shared by the scalar and wide paths.
    fn eval_words_into<W: LaneWord>(
        &self,
        bits: &[W],
        faults: &[StuckAtLine],
        values: &mut Vec<W>,
    ) {
        assert_eq!(bits.len(), self.input_bits, "input bit count mismatch");
        values.clear();
        values.resize(self.kinds.len(), W::ZERO);
        self.eval_gates(0..self.kinds.len(), bits, faults, values);
    }

    /// Re-evaluates only `cone` under `faults`, in place over `values`.
    ///
    /// `values` must hold the good machine's words for the same batch,
    /// and `cone` must be the ascending transitive fanout of the gates
    /// `faults` name (see [`Engine::fanout_cone_into`]). Every net
    /// outside the cone keeps its good value, which is exactly its
    /// faulty value, so `values` then equals a full faulty pass. The
    /// caller restores the cone's nets from the good words before the
    /// next group.
    pub(crate) fn eval_cone<W: LaneWord>(
        &self,
        bits: &[W],
        cone: &[u32],
        faults: &[StuckAtLine],
        values: &mut [W],
    ) {
        self.eval_gates(cone.iter().map(|&g| g as usize), bits, faults, values);
    }

    /// The gate loop: evaluates `gates` (ascending, so every operand
    /// is final when read) into `values`, forcing `faults`. Faulted
    /// gates must all be in `gates`.
    #[inline(always)]
    fn eval_gates<W: LaneWord>(
        &self,
        gates: impl Iterator<Item = usize>,
        bits: &[W],
        faults: &[StuckAtLine],
        values: &mut [W],
    ) {
        debug_assert!(
            faults.windows(2).all(|w| w[0].site.gate <= w[1].site.gate),
            "fault list must be sorted by gate"
        );
        let mut fi = 0usize;
        let mut fault_gate = faults.first().map_or(usize::MAX, |f| f.site.gate);
        for i in gates {
            let out = if i == fault_gate {
                // Slow path: apply every fault attached to this gate.
                let mut pin0 = None;
                let mut pin1 = None;
                let mut stem = None;
                while fi < faults.len() && faults[fi].site.gate == i {
                    match faults[fi].site.pin {
                        Some(0) => pin0 = Some(faults[fi].value),
                        Some(1) => pin1 = Some(faults[fi].value),
                        // Rejected by `check_faults`; ignored here so a
                        // line smuggled past validation through the raw
                        // batch API cannot abort a campaign.
                        Some(_) => {}
                        None => stem = Some(faults[fi].value),
                    }
                    fi += 1;
                }
                fault_gate = faults.get(fi).map_or(usize::MAX, |f| f.site.gate);
                let read = |pin: Option<bool>, net: u32, values: &[W]| -> W {
                    pin.map_or(values[net as usize], W::splat)
                };
                let out = match self.kinds[i] {
                    GateKind::Input => bits[self.a[i] as usize],
                    GateKind::Const(c) => W::splat(c),
                    GateKind::Not => !read(pin0, self.a[i], values),
                    GateKind::Buf => read(pin0, self.a[i], values),
                    kind => {
                        let va = read(pin0, self.a[i], values);
                        let vb = read(pin1, self.b[i], values);
                        apply2(kind, va, vb)
                    }
                };
                stem.map_or(out, W::splat)
            } else {
                match self.kinds[i] {
                    GateKind::Input => bits[self.a[i] as usize],
                    GateKind::Const(c) => W::splat(c),
                    GateKind::Not => !values[self.a[i] as usize],
                    GateKind::Buf => values[self.a[i] as usize],
                    kind => apply2(kind, values[self.a[i] as usize], values[self.b[i] as usize]),
                }
            };
            // Lanes beyond the batch length hold junk; harmless, masked
            // later.
            values[i] = out;
        }
    }

    /// Appends the transitive fanout cone of the gates `faults` name —
    /// those gates and every gate reading, directly or not, one of
    /// their nets — to `cone` in ascending (topological) order.
    ///
    /// `marks` is a scratch bitset of at least `net_count()` bits; it
    /// must be all clear on entry and is left all clear. `stack` is
    /// scratch. The cone comes out sorted because it is read off the
    /// bitset word by word, not collected in visit order.
    pub(crate) fn fanout_cone_into(
        &self,
        faults: &[StuckAtLine],
        marks: &mut [u64],
        stack: &mut Vec<u32>,
        cone: &mut Vec<u32>,
    ) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        let mut mark = |g: usize, marks: &mut [u64]| -> bool {
            let (w, bit) = (g / 64, 1u64 << (g % 64));
            let fresh = marks[w] & bit == 0;
            marks[w] |= bit;
            lo = lo.min(w);
            hi = hi.max(w);
            fresh
        };
        stack.clear();
        for f in faults {
            if mark(f.site.gate, marks) {
                stack.push(f.site.gate as u32);
            }
        }
        while let Some(net) = stack.pop() {
            let net = net as usize;
            let span = self.reader_start[net] as usize..self.reader_start[net + 1] as usize;
            for &r in &self.readers[span] {
                if mark(r as usize, marks) {
                    stack.push(r);
                }
            }
        }
        if lo == usize::MAX {
            return;
        }
        for (w, word) in marks[lo..=hi].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                cone.push(((lo + w) * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
    }

    /// Convenience wrapper allocating a fresh value vector.
    #[must_use]
    pub fn eval_batch(&self, batch: &InputBatch, faults: &[StuckAtLine]) -> Vec<u64> {
        let mut values = Vec::new();
        self.eval_batch_into(batch, faults, &mut values);
        values
    }

    /// Compares a faulty evaluation against the good machine over one
    /// batch, producing the packed taxonomy masks.
    #[must_use]
    pub fn compare(&self, good: &[u64], faulty: &[u64], mask: u64) -> BatchOutcome {
        let (wrong, alarm) = self.compare_words(good, faulty, mask);
        BatchOutcome { wrong, alarm, mask }
    }

    /// Wide twin of [`Engine::compare`].
    #[must_use]
    pub fn compare_wide<const L: usize>(
        &self,
        good: &[Words<L>],
        faulty: &[Words<L>],
        mask: Words<L>,
    ) -> WideOutcome<L> {
        let (wrong, alarm) = self.compare_words(good, faulty, mask);
        WideOutcome { wrong, alarm, mask }
    }

    fn compare_words<W: LaneWord>(&self, good: &[W], faulty: &[W], mask: W) -> (W, W) {
        let mut wrong = W::ZERO;
        for &net in &self.result_nets {
            wrong = wrong | (good[net as usize] ^ faulty[net as usize]);
        }
        let mut alarm = W::ZERO;
        for &net in &self.alarm_nets {
            alarm = alarm | faulty[net as usize];
        }
        (wrong & mask, alarm & mask)
    }
}

/// The shared fault-list validation of both engines.
pub(crate) fn check_lines(kinds: &[GateKind], faults: &[StuckAtLine]) -> Result<(), SimError> {
    for f in faults {
        let gate = f.site.gate;
        let Some(kind) = kinds.get(gate) else {
            return Err(SimError::GateOutOfRange {
                gate,
                gates: kinds.len(),
            });
        };
        if let Some(pin) = f.site.pin {
            let pins = kind.pins();
            if pin >= pins {
                return Err(SimError::PinOutOfRange { gate, pin, pins });
            }
        }
    }
    Ok(())
}

/// The two-input gate functions, shared by both engines and all lane
/// widths.
#[inline]
pub(crate) fn apply2<W: LaneWord>(kind: GateKind, a: W, b: W) -> W {
    match kind {
        GateKind::And => a & b,
        GateKind::Or => a | b,
        GateKind::Xor => a ^ b,
        GateKind::Nand => !(a & b),
        GateKind::Nor => !(a | b),
        GateKind::Xnor => !(a ^ b),
        _ => unreachable!("two-input kinds only"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::InputPlan;
    use scdp_netlist::{NetlistBuilder, StuckSite};

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let x = b.input_bus("x", 2);
        let y = b.xor(x[0], x[1]);
        b.output("y", &[y]);
        b.finish()
    }

    #[test]
    fn packed_matches_scalar_on_xor() {
        let nl = xor_netlist();
        let engine = Engine::new(&nl);
        for batch in InputPlan::Exhaustive.stream(2) {
            let packed = engine.eval_batch(&batch, &[]);
            for lane in 0..batch.len {
                let scalar = nl.eval_nets(&batch.lane_bits(lane), &[]);
                for (net, word) in packed.iter().enumerate() {
                    assert_eq!(
                        (word >> lane) & 1 != 0,
                        scalar[net],
                        "net {net} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn stem_and_pin_faults_match_scalar() {
        let nl = xor_netlist();
        let engine = Engine::new(&nl);
        let cases = [
            StuckAtLine::new(StuckSite { gate: 2, pin: None }, true),
            StuckAtLine::new(
                StuckSite {
                    gate: 2,
                    pin: Some(1),
                },
                false,
            ),
            StuckAtLine::new(StuckSite { gate: 0, pin: None }, true),
        ];
        for fault in cases {
            for batch in InputPlan::Exhaustive.stream(2) {
                let packed = engine.eval_batch(&batch, &[fault]);
                for lane in 0..batch.len {
                    let scalar = nl.eval_nets(&batch.lane_bits(lane), &[fault]);
                    for (net, word) in packed.iter().enumerate() {
                        assert_eq!(
                            (word >> lane) & 1 != 0,
                            scalar[net],
                            "{fault:?} net {net} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_eval_limbs_match_scalar_eval() {
        // 8 inputs -> 256 vectors -> several scalar batches per wide
        // batch at L = 4.
        let mut b = NetlistBuilder::new("wide");
        let x = b.input_bus("x", 8);
        let mut acc = x[0];
        for (i, &xi) in x.iter().enumerate().skip(1) {
            acc = match i % 3 {
                0 => b.and(acc, xi),
                1 => b.xor(acc, xi),
                _ => b.nor(acc, xi),
            };
        }
        b.output("y", &[acc]);
        let nl = b.finish();
        let engine = Engine::new(&nl);
        let fault = StuckAtLine::new(
            StuckSite {
                gate: 9,
                pin: Some(0),
            },
            true,
        );
        for faults in [&[][..], &[fault][..]] {
            let plan = InputPlan::Exhaustive;
            let scalar: Vec<Vec<u64>> = plan
                .stream(8)
                .map(|batch| engine.eval_batch(&batch, faults))
                .collect();
            let mut k = 0;
            let mut values = Vec::new();
            for wide in plan.wide_stream::<4>(8) {
                engine.eval_wide_into(&wide, faults, &mut values);
                for limb in 0..wide.limbs {
                    for (net, w) in values.iter().enumerate() {
                        assert_eq!(w.limb(limb), scalar[k][net], "net {net} batch {k}");
                    }
                    k += 1;
                }
            }
            assert_eq!(k, scalar.len());
        }
    }

    #[test]
    fn wide_compare_limbs_match_scalar_compare() {
        let nl = xor_netlist();
        let engine = Engine::new(&nl);
        let fault = StuckAtLine::new(StuckSite { gate: 2, pin: None }, true);
        let wide = InputPlan::Exhaustive.wide_stream::<4>(2).next().unwrap();
        let mut good = Vec::new();
        let mut faulty = Vec::new();
        engine.eval_wide_into(&wide, &[], &mut good);
        engine.eval_wide_into(&wide, &[fault], &mut faulty);
        let outcome = engine.compare_wide(&good, &faulty, wide.mask);
        let batch = InputPlan::Exhaustive.stream(2).next().unwrap();
        let sg = engine.eval_batch(&batch, &[]);
        let sf = engine.eval_batch(&batch, &[fault]);
        assert_eq!(outcome.limb(0), engine.compare(&sg, &sf, batch.mask()));
        for limb in 1..4 {
            assert_eq!(outcome.limb(limb).mask, 0, "dead limbs stay masked");
        }
    }

    #[test]
    fn outcome_counts_partition_the_mask() {
        let o = BatchOutcome {
            wrong: 0b1100,
            alarm: 0b1010,
            mask: 0b1111,
        };
        let (cs, cd, ed, eu) = o.counts();
        assert_eq!((cs, cd, ed, eu), (1, 1, 1, 1));
        assert_eq!(o.escapes(), 0b0100);
    }

    #[test]
    fn error_bus_is_alarm_role() {
        let mut b = NetlistBuilder::new("roles");
        let x = b.input_bus("x", 1);
        b.output("ris", &[x[0]]);
        b.output("error", &[x[0]]);
        let engine = Engine::new(&b.finish());
        assert_eq!(engine.result_nets, vec![0]);
        assert_eq!(engine.alarm_nets, vec![0]);
    }
}
