//! Property-based integration tests over the public API: compressor
//! error-bound guarantees on arbitrary inputs, energy-model invariants
//! over arbitrary work profiles and frequencies, and energy conservation
//! of the two-phase pricing point under every overlap.

use lcpio::codec::{registry, BoundSpec, Codec, CodecStats};
use lcpio::core::pipeline::{overlap, PhaseCost, PhaseOrder, TwoPhaseWork};
use lcpio::core::{Compressor, CostModel};
use lcpio::powersim::{simulate, Chip, Machine, WorkProfile};
use proptest::prelude::*;

fn sz_codec() -> &'static dyn Codec {
    registry().by_name("sz").expect("sz is registered")
}

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => -1e6f32..1e6,
        1 => -1e-3f32..1e-3,
        1 => Just(0.0f32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sz_error_bound_holds_for_arbitrary_1d_data(
        data in proptest::collection::vec(finite_f32(), 1..512),
        eb_exp in -5i32..0,
    ) {
        let eb = 10f64.powi(eb_exp);
        let out = sz_codec().compress(&data, &[data.len()], BoundSpec::Absolute(eb)).unwrap();
        let (rec, _) = registry().decompress_auto(&out.bytes, 1).unwrap();
        for (a, b) in data.iter().zip(&rec) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb * 1.001 + 1e-12);
        }
    }

    #[test]
    fn sz_error_bound_holds_for_arbitrary_2d_data(
        ny in 1usize..24,
        nx in 1usize..24,
        seed in any::<u64>(),
        eb_exp in -4i32..-1,
    ) {
        let eb = 10f64.powi(eb_exp);
        let mut state = seed | 1;
        let data: Vec<f32> = (0..ny * nx)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 1e4).sin() * 50.0
            })
            .collect();
        let out = sz_codec().compress(&data, &[ny, nx], BoundSpec::Absolute(eb)).unwrap();
        let (rec, dims) = registry().decompress_auto(&out.bytes, 1).unwrap();
        prop_assert_eq!(dims, vec![ny, nx]);
        for (a, b) in data.iter().zip(&rec) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb * 1.001 + 1e-12);
        }
    }

    #[test]
    fn sz_chunked_bound_holds_and_values_are_thread_count_invariant(
        nz in 1usize..30,
        ny in 1usize..12,
        nx in 1usize..12,
        seed in any::<u64>(),
        eb_exp in -4i32..-1,
    ) {
        let eb = 10f64.powi(eb_exp);
        let mut state = seed | 1;
        let data: Vec<f32> = (0..nz * ny * nx)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 1e4).sin() * 50.0
            })
            .collect();
        let mut prev: Option<(Vec<u8>, Vec<f32>)> = None;
        for threads in [1usize, 2, 4] {
            let out = sz_codec()
                .compress_chunked(&data, &[nz, ny, nx], BoundSpec::Absolute(eb), threads)
                .unwrap();
            let (rec, dims) = registry().decompress_auto(&out.bytes, threads).unwrap();
            prop_assert_eq!(dims, vec![nz, ny, nx]);
            for (a, b) in data.iter().zip(&rec) {
                prop_assert!((*a as f64 - *b as f64).abs() <= eb * 1.001 + 1e-12);
            }
            if let Some((pb, pr)) = &prev {
                // Container bytes and reconstructed values must not depend
                // on the worker count.
                prop_assert_eq!(pb, &out.bytes);
                prop_assert_eq!(pr, &rec);
            }
            prev = Some((out.bytes, rec));
        }
    }

    #[test]
    fn sz_chunked_decode_is_bit_identical_to_per_chunk_serial(
        nz in 7usize..40,
        nx in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let data: Vec<f32> = (0..nz * nx)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 1e4).sin() * 50.0
            })
            .collect();
        let out = sz_codec()
            .compress_chunked(&data, &[nz, nx], BoundSpec::Absolute(1e-3), 2)
            .unwrap();
        let (rec, _) = registry().decompress_auto(&out.bytes, 2).unwrap();
        // Each embedded chunk is a complete serial SZ container, so the
        // registry can sniff and decode it standalone.
        let info = lcpio::codec::chunked::parse(&out.bytes).unwrap();
        let mut serial: Vec<f32> = Vec::new();
        for &(_, _, chunk) in info.chunks() {
            let (vals, _) = registry().decompress_auto(chunk, 1).unwrap();
            serial.extend_from_slice(&vals);
        }
        prop_assert_eq!(rec, serial);
    }

    #[test]
    fn zfp_error_bound_holds_for_arbitrary_3d_data(
        nz in 1usize..10,
        ny in 1usize..10,
        nx in 1usize..10,
        seed in any::<u32>(),
        eb_exp in -4i32..0,
    ) {
        let eb = 10f64.powi(eb_exp);
        let data: Vec<f32> = (0..nz * ny * nx)
            .map(|i| (((i as u32).wrapping_mul(seed | 1) >> 16) as f32 / 655.36).sin())
            .collect();
        let out = registry()
            .by_name("zfp")
            .expect("zfp is registered")
            .compress(&data, &[nz, ny, nx], BoundSpec::Absolute(eb))
            .unwrap();
        let (rec, _) = registry().decompress_auto(&out.bytes, 1).unwrap();
        for (a, b) in data.iter().zip(&rec) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb, "{a} vs {b} (eb {eb})");
        }
    }

    #[test]
    fn energy_model_invariants(
        cycles in 1e6f64..1e12,
        mem in 0f64..1e11,
        io in 0f64..1e11,
        f_lo in 0.8f64..1.4,
        df in 0.05f64..0.8,
    ) {
        for chip in Chip::ALL {
            let m = Machine::for_chip(chip);
            let p = WorkProfile { compute_cycles: cycles, memory_bytes: mem, io_bytes: io, ..Default::default() };
            let f_hi = (f_lo + df).min(m.cpu.f_max_ghz);
            let lo = simulate(&m, m.cpu.snap(f_lo), &p);
            let hi = simulate(&m, m.cpu.snap(f_hi), &p);
            // Higher frequency: never slower, never lower average power.
            prop_assert!(hi.runtime_s <= lo.runtime_s + 1e-12);
            prop_assert!(hi.avg_power_w >= lo.avg_power_w - 1e-9);
            // Energy, runtime, power are positive and consistent.
            prop_assert!(lo.energy_j > 0.0 && hi.energy_j > 0.0);
            prop_assert!((lo.energy_j - lo.avg_power_w * lo.runtime_s).abs() < 1e-6 * lo.energy_j.max(1.0));
        }
    }

    #[test]
    fn work_profile_scaling_scales_energy_linearly(
        cycles in 1e6f64..1e11,
        mem in 1e6f64..1e10,
        k in 1.0f64..100.0,
    ) {
        let m = Machine::for_chip(Chip::Broadwell);
        let p = WorkProfile { compute_cycles: cycles, memory_bytes: mem, ..Default::default() };
        let one = simulate(&m, 1.5, &p);
        let big = simulate(&m, 1.5, &p.scaled(k));
        prop_assert!((big.energy_j / one.energy_j - k).abs() < 1e-6 * k);
        prop_assert!((big.runtime_s / one.runtime_s - k).abs() < 1e-6 * k);
    }

    #[test]
    fn two_phase_pricing_conserves_energy_under_every_overlap(
        elements in 1_000u64..10_000_000,
        literal_share in 0f64..1.0,
        bits_per_element in 0.5f64..32.0,
        ratio in 1.1f64..50.0,
        f_cpu_step in 0usize..64,
        f_io_step in 0usize..64,
        chunks in 1usize..65,
        depth in 1usize..9,
    ) {
        let stats = CodecStats {
            elements,
            input_bytes: elements * 4,
            output_bytes: ((elements * 4) as f64 / ratio).max(1.0) as u64,
            literal_elements: (elements as f64 * literal_share) as u64,
            coded_bits: (elements as f64 * bits_per_element) as u64,
        };
        let cost_model = CostModel::default();
        let builders = [TwoPhaseWork::compress_write, TwoPhaseWork::fetch_decompress];
        for chip in [Chip::Broadwell, Chip::Skylake] {
            let m = Machine::for_chip(chip);
            let step = |k: usize| m.cpu.ladder().nth(k % m.cpu.ladder_len()).expect("on the ladder");
            let (f_cpu, f_io) = (step(f_cpu_step), step(f_io_step));
            for compressor in Compressor::ALL {
                for (build, order) in builders.iter().zip([PhaseOrder::CpuFirst, PhaseOrder::IoFirst]) {
                    let stored = stats.output_bytes as f64;
                    let work = build(&cost_model, &m, compressor, &stats, 1.0, stored);
                    // A mixed plan: every other chunk runs its CPU phase
                    // one ladder step away.
                    let prices: Vec<PhaseCost> = (0..chunks)
                        .map(|k| work.price(&m, if k % 2 == 0 { f_cpu } else { step(f_cpu_step + 1) }, f_io))
                        .collect();
                    let o = overlap(prices.iter().copied(), 1, depth, order);
                    // Joules and busy seconds are the per-unit prices,
                    // summed: overlap moves no energy between phases.
                    prop_assert_eq!(o.cpu_j, prices.iter().fold(0.0, |j, p| j + p.cpu_j));
                    prop_assert_eq!(o.io_j, prices.iter().fold(0.0, |j, p| j + p.io_j));
                    prop_assert_eq!(o.sequential_s, o.cpu_s + o.io_s);
                    // The makespan lies between the busier stage and the
                    // sequential schedule (rounding of the running sums).
                    prop_assert!(o.pipelined_s >= o.cpu_s.max(o.io_s) * (1.0 - 1e-12));
                    prop_assert!(o.pipelined_s <= o.sequential_s * (1.0 + 1e-12));
                    let serial = overlap(prices.iter().copied(), 1, 1, order);
                    prop_assert!(
                        (serial.pipelined_s - serial.sequential_s).abs() <= 1e-12 * serial.sequential_s,
                        "depth 1 is the sequential schedule"
                    );
                    // `n` equal units cost `n ×` one unit, to the bit.
                    let uniform = overlap([prices[0]], chunks, depth, order);
                    let n = prices[0].times(chunks as f64);
                    prop_assert_eq!(
                        (uniform.cpu_j, uniform.io_j, uniform.cpu_s, uniform.io_s, uniform.sequential_s),
                        (n.cpu_j, n.io_j, n.cpu_s, n.io_s, n.sequential_s)
                    );
                }
            }
        }
    }
}
