//! Workload expansion: a built accelerator plus the builder's design-time
//! decisions (spill policies, weight residency) unrolled into a per-image
//! tile graph for the event-driven engine.
//!
//! Control decisions (what is buffered where, which spill policy each
//! layer uses) are made at design time by the Multiple-CE Builder and the
//! Eq. (6) policy selection — the accelerator hardware executes them
//! unconditionally, so the simulator shares them with the analytical
//! model. What the simulator measures independently is *timing*: DMA
//! serialization and latency, burst occupancy, per-tile control overhead,
//! pipeline fill/drain, and cross-image contention.

use mccm_arch::{BuiltAccelerator, Executor};
use mccm_core::Evaluation;

/// One unit of simulated work: an OFM row-tile (or a DMA-only prefetch).
#[derive(Debug, Clone)]
pub(crate) struct TileSpec {
    /// Executing engine; `None` for DMA-only prefetch tiles.
    pub ce: Option<usize>,
    /// Segment index.
    pub segment: usize,
    /// Conv-layer index (`usize::MAX` for prefetch tiles).
    #[cfg_attr(not(test), allow(dead_code))]
    pub layer: usize,
    /// Bytes DMA-loaded before compute.
    pub load_bytes: u64,
    /// Load byte category split: `(weights, fm)`.
    pub load_split: (u64, u64),
    /// Compute cycles.
    pub compute_cycles: u64,
    /// Bytes DMA-stored after compute.
    pub store_bytes: u64,
}

/// Rows of ids in one flat array (compressed sparse rows): row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    offsets: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    fn new() -> Self {
        Self {
            offsets: vec![0],
            items: Vec::new(),
        }
    }

    /// Appends `item` to the open (last) row.
    fn push(&mut self, item: usize) {
        self.items.push(item);
    }

    /// Closes the open row; the next `push` starts a new one.
    fn end_row(&mut self) {
        self.offsets.push(self.items.len());
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The reverse table over `n` rows: row `j` lists every `i` whose row
    /// holds `j`, in ascending `i`, a repeated entry repeated.
    fn transpose(&self, n: usize) -> Self {
        let mut offsets = vec![0; n + 1];
        for &j in &self.items {
            offsets[j + 1] += 1;
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let mut cursor = offsets.clone();
        let mut items = vec![0; self.items.len()];
        for i in 0..self.offsets.len() - 1 {
            for &j in self.row(i) {
                items[cursor[j]] = i;
                cursor[j] += 1;
            }
        }
        Self { offsets, items }
    }
}

/// A per-image tile graph plus indexing helpers.
#[derive(Debug, Clone)]
pub(crate) struct TileGraph {
    /// Tiles in topological (construction) order; a tile's id is its
    /// index.
    pub tiles: Vec<TileSpec>,
    /// Per tile, the tiles that must complete before its load may issue
    /// (always lower ids).
    pub deps: Csr,
    /// Per tile, the tiles that list it in their `deps`: ascending, one
    /// entry per listing. The engine releases them in this order.
    pub dependents: Csr,
    /// Tile ids per CE, in that engine's strict execution order.
    pub ce_order: Vec<Vec<usize>>,
}

/// Builds the tile graph for one image, given the accelerator and its
/// analytical evaluation (whose per-layer records carry the design-time
/// traffic decisions).
pub(crate) fn build_tile_graph(acc: &BuiltAccelerator, eval: &Evaluation) -> TileGraph {
    let mut tiles: Vec<TileSpec> = Vec::new();
    let mut deps = Csr::new();
    let mut ce_order: Vec<Vec<usize>> = vec![Vec::new(); acc.ces.len()];
    // Last tile id of each conv layer (for producer row deps) and per
    // layer: the tile id producing row `r`.
    let mut layer_row_tiles: Vec<Vec<usize>> = vec![Vec::new(); acc.convs.len()];
    let mut prev_segment_last: Option<usize> = None;
    // Prefetch chain per block (keyed by sorted CE list).
    let mut prefetch_chain: std::collections::HashMap<Vec<usize>, usize> =
        std::collections::HashMap::new();

    for seg in &acc.segments {
        let seg_first_tile = tiles.len();
        match &seg.executor {
            Executor::SingleCe(ce_id) => {
                let poh = acc.ces[*ce_id].parallelism.dims[2].max(1);
                #[allow(clippy::needless_range_loop)]
                for l in seg.first..=seg.last {
                    let conv = &acc.convs[l];
                    let rep = &eval.layers[l];
                    debug_assert_eq!(rep.layer, l);
                    let n_tiles = (conv.ofm.height as u64).div_ceil(poh as u64).max(1);
                    // The simulator replays the model's per-layer traffic
                    // tile by tile; splitting works in raw bytes.
                    let (w_total, fml_total, st_total) = (
                        rep.weight_traffic.get(),
                        rep.fm_load_traffic.get(),
                        rep.fm_store_traffic.get(),
                    );
                    let w_per = w_total / n_tiles;
                    let fml_per = fml_total / n_tiles;
                    let st_per = st_total / n_tiles;
                    for t in 0..n_tiles {
                        // The last tile's height is the exact division
                        // remainder: `n_tiles = ceil(height / poh)`
                        // guarantees `poh * (n_tiles - 1) < height`, so the
                        // subtraction is in `[1, poh]` for any non-empty
                        // OFM. (The old `.min(height - 1)` clamp forced a
                        // phantom 1-row floor — and underflowed on
                        // zero-height OFMs — instead of computing the
                        // remainder.)
                        let rows = if t + 1 == n_tiles {
                            conv.ofm.height - poh * (n_tiles as u32 - 1)
                        } else {
                            poh
                        };
                        let id = tiles.len();
                        // Segment entry: first tile waits for the handoff.
                        if l == seg.first && t == 0 {
                            if let Some(p) = prev_segment_last {
                                deps.push(p);
                            }
                        }
                        // Double-buffer gate: two tiles in flight per CE.
                        let order = &ce_order[*ce_id];
                        if order.len() >= 2 {
                            deps.push(order[order.len() - 2]);
                        }
                        // Last tile carries the rounding remainders.
                        let last_t = t + 1 == n_tiles;
                        let (lw, lf, ls) = if last_t {
                            (
                                w_total - w_per * (n_tiles - 1),
                                fml_total - fml_per * (n_tiles - 1),
                                st_total - st_per * (n_tiles - 1),
                            )
                        } else {
                            (w_per, fml_per, st_per)
                        };
                        tiles.push(TileSpec {
                            ce: Some(*ce_id),
                            segment: seg.index,
                            layer: l,
                            load_bytes: lw + lf,
                            load_split: (lw, lf),
                            compute_cycles: acc.ces[*ce_id]
                                .parallelism
                                .tile_latency_cycles(conv.dims, rows),
                            store_bytes: ls,
                        });
                        deps.end_row();
                        ce_order[*ce_id].push(id);
                        layer_row_tiles[l].push(id);
                    }
                }
            }
            Executor::PipelinedCes(ces) => {
                // Round weight prefetch: one DMA-only tile for all resident
                // layers of this round, chained per block for overlap.
                let mut block_key: Vec<usize> = ces.clone();
                block_key.sort_unstable();
                let resident: Vec<bool> = (0..ces.len())
                    .map(|j| {
                        acc.buffers.ce[ces[j]].weight_capacity()
                            >= acc.weight_buffer_bytes(seg.first + j)
                    })
                    .collect();
                let resident_bytes: u64 = (0..ces.len())
                    .filter(|&j| resident[j])
                    .map(|j| acc.weight_bytes(seg.first + j))
                    .sum();
                let prefetch_id = if resident_bytes > 0 {
                    let id = tiles.len();
                    if let Some(&p) = prefetch_chain.get(&block_key) {
                        deps.push(p);
                    }
                    tiles.push(TileSpec {
                        ce: None,
                        segment: seg.index,
                        layer: usize::MAX,
                        load_bytes: resident_bytes,
                        load_split: (resident_bytes, 0),
                        compute_cycles: 0,
                        store_bytes: 0,
                    });
                    deps.end_row();
                    prefetch_chain.insert(block_key, id);
                    Some(id)
                } else {
                    None
                };

                let input_off = seg.index == 0 || !acc.buffers.inter_segment[seg.index - 1].on_chip;
                let output_off = seg.index + 1 == acc.segments.len()
                    || !acc.buffers.inter_segment[seg.index].on_chip;

                for (j, &ce_id) in ces.iter().enumerate() {
                    let l = seg.first + j;
                    let conv = &acc.convs[l];
                    let oh = conv.ofm.height as usize;
                    let row_lat = acc.ces[ce_id].parallelism.tile_latency_cycles(conv.dims, 1);
                    let w_bytes = acc.weight_bytes(l);
                    let in_round: Vec<usize> = conv
                        .producers
                        .iter()
                        .filter(|&&p| p >= seg.first && p < l)
                        .copied()
                        .collect();
                    let ifm_total = if j == 0 && input_off {
                        acc.ifm_bytes(l)
                    } else {
                        0
                    };
                    let ifm_row_share = ifm_total / oh as u64;
                    let store_row = if j + 1 == ces.len() && output_off {
                        acc.precision.activation_size(conv.ofm.row_elements())
                    } else {
                        0
                    };

                    for r in 0..oh {
                        let id = tiles.len();
                        if r == 0 {
                            if let Some(p) = prefetch_id {
                                if resident[j] {
                                    deps.push(p);
                                }
                            }
                            if in_round.is_empty() {
                                if let Some(p) = prev_segment_last {
                                    deps.push(p);
                                }
                            }
                        }
                        // Producer row dependencies (through pooling the
                        // producer has more rows; scale by height ratio).
                        for &p in &in_round {
                            let need = rows_needed(acc, l, r as u32);
                            let prod_h = acc.convs[p].ofm.height as u64;
                            let ifm_h = conv.ifm.height.max(1) as u64;
                            let prod_rows = ((need * prod_h).div_ceil(ifm_h)).min(prod_h) as usize;
                            if let Some(&dep) = layer_row_tiles[p].get(prod_rows - 1) {
                                deps.push(dep);
                            }
                        }
                        // Double-buffer gate.
                        let order = &ce_order[ce_id];
                        if order.len() >= 2 {
                            deps.push(order[order.len() - 2]);
                        }
                        let lw = if resident[j] { 0 } else { w_bytes };
                        // The last row tile carries the division remainder
                        // so per-layer traffic matches the model exactly.
                        let ifm_share = if r + 1 == oh {
                            ifm_total - ifm_row_share * (oh as u64 - 1)
                        } else {
                            ifm_row_share
                        };
                        tiles.push(TileSpec {
                            ce: Some(ce_id),
                            segment: seg.index,
                            layer: l,
                            load_bytes: lw + ifm_share,
                            load_split: (lw, ifm_share),
                            compute_cycles: row_lat,
                            store_bytes: store_row,
                        });
                        deps.end_row();
                        ce_order[ce_id].push(id);
                        layer_row_tiles[l].push(id);
                    }
                }
            }
        }
        debug_assert!(tiles.len() > seg_first_tile, "segments expand to tiles");
        prev_segment_last = Some(tiles.len() - 1);
    }

    // Topological sanity: deps point backwards.
    debug_assert!((0..tiles.len()).all(|id| deps.row(id).iter().all(|&d| d < id)));

    let dependents = deps.transpose(tiles.len());
    TileGraph {
        tiles,
        deps,
        dependents,
        ce_order,
    }
}

/// IFM rows layer `l` needs before producing through OFM row `r`.
fn rows_needed(acc: &BuiltAccelerator, l: usize, r: u32) -> u64 {
    let conv = &acc.convs[l];
    let need = r as u64 * conv.spec.stride.0 as u64 + conv.spec.kernel.0 as u64;
    need.saturating_sub(conv.spec.padding.h as u64)
        .clamp(1, conv.ifm.height as u64)
}

/// Per-image useful traffic of a tile graph: `(weights, fm_loads, fm_stores)`.
pub(crate) fn graph_traffic(graph: &TileGraph) -> (u64, u64, u64) {
    let mut w = 0u64;
    let mut fl = 0u64;
    let mut fs = 0u64;
    for t in &graph.tiles {
        w += t.load_split.0;
        fl += t.load_split.1;
        fs += t.store_bytes;
    }
    (w, fl, fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_arch::{templates, MultipleCeBuilder};
    use mccm_cnn::zoo;
    use mccm_core::CostModel;
    use mccm_fpga::FpgaBoard;

    /// Evaluates `acc` and expands it in one call.
    fn expand(acc: &BuiltAccelerator) -> (Evaluation, TileGraph) {
        let eval = CostModel::evaluate(acc);
        let graph = build_tile_graph(acc, &eval);
        (eval, graph)
    }

    fn build(arch: templates::Architecture, k: usize) -> (BuiltAccelerator, Evaluation, TileGraph) {
        let m = zoo::resnet50();
        let spec = arch.instantiate(&m, k).unwrap();
        let acc = MultipleCeBuilder::new(&m, &FpgaBoard::zc706())
            .build(&spec)
            .unwrap();
        let (eval, graph) = expand(&acc);
        (acc, eval, graph)
    }

    #[test]
    fn deps_are_topological() {
        for arch in templates::Architecture::ALL {
            let (_, _, g) = build(arch, 4);
            for id in 0..g.tiles.len() {
                assert!(g.deps.row(id).iter().all(|&d| d < id), "{arch}");
            }
        }
    }

    #[test]
    fn dependents_keep_ascending_order_and_repeats() {
        // Rows: 0 -> [], 1 -> [0], 2 -> [0, 1], 3 -> [1, 1].
        let mut deps = Csr::new();
        for row in [&[][..], &[0], &[0, 1], &[1, 1]] {
            for &d in row {
                deps.push(d);
            }
            deps.end_row();
        }
        let dependents = deps.transpose(4);
        assert_eq!(dependents.row(0), [1, 2]);
        assert_eq!(dependents.row(1), [2, 3, 3]);
        assert!(dependents.row(2).is_empty() && dependents.row(3).is_empty());
    }

    #[test]
    fn traffic_matches_analytical_model() {
        // The tile expansion must preserve the model's deterministic
        // access counts exactly (the paper's 100% access accuracy).
        for arch in templates::Architecture::ALL {
            for k in [2, 5, 9] {
                let (_, eval, g) = build(arch, k);
                let (w, fl, fs) = graph_traffic(&g);
                assert_eq!(w, eval.offchip_weight_bytes.get(), "{arch} {k} weights");
                assert_eq!(fl + fs, eval.offchip_fm_bytes.get(), "{arch} {k} fms");
            }
        }
    }

    #[test]
    fn ce_order_covers_all_compute_tiles() {
        let (_, _, g) = build(templates::Architecture::SegmentedRr, 3);
        let ordered: usize = g.ce_order.iter().map(Vec::len).sum();
        let compute_tiles = g.tiles.iter().filter(|t| t.ce.is_some()).count();
        assert_eq!(ordered, compute_tiles);
    }

    #[test]
    fn pipelined_rounds_have_prefetch_tiles_when_resident() {
        let (acc, _, g) = build(templates::Architecture::Hybrid, 5);
        let has_resident =
            (0..4).any(|l| acc.buffers.ce[l].weight_capacity() >= acc.weight_bytes(l));
        if has_resident {
            assert!(g.tiles.iter().any(|t| t.ce.is_none()));
        }
    }

    #[test]
    fn last_tile_rows_are_the_exact_remainder() {
        // Regression for the old `.min(ofm.height - 1)` clamp on the last
        // tile's row count: the final tile must carry the exact division
        // remainder (in [1, poh]) — degenerate shapes included (stride
        // larger than the remaining height, 1-row OFMs) — and the per-layer
        // tile heights must partition the OFM rows exactly.
        use mccm_cnn::{ConvSpec, ModelBuilder, Padding, TensorShape};

        let mut b = ModelBuilder::new("degenerate", TensorShape::new(3, 23, 23));
        b.conv("c1", ConvSpec::standard(3, 1, Padding::same(3, 3)), 8, 0); // 23 rows
        b.conv("c2", ConvSpec::standard(3, 2, Padding::same(3, 3)), 16, 0); // 12 rows
        b.conv("c3", ConvSpec::standard(3, 22, Padding::valid()), 16, 0); // stride 22 > 12: 1 row
        b.conv("c4", ConvSpec::pointwise(1), 8, 0); // 1-row OFM chained
        let m = b.finish().unwrap();

        let spec = templates::segmented(&m, 2).unwrap();
        let acc = MultipleCeBuilder::new(&m, &FpgaBoard::zc706())
            .build(&spec)
            .unwrap();
        let (_, g) = expand(&acc);

        let mut one_row_layers = 0usize;
        for seg in &acc.segments {
            let Executor::SingleCe(ce) = &seg.executor else {
                panic!("segmented template uses single-CE executors");
            };
            let poh = acc.ces[*ce].parallelism.dims[2].max(1);
            for l in seg.first..=seg.last {
                let conv = &acc.convs[l];
                let h = conv.ofm.height;
                let n_tiles = (h as u64).div_ceil(poh as u64).max(1);
                let tiles: Vec<_> = g.tiles.iter().filter(|t| t.layer == l).collect();
                assert_eq!(tiles.len() as u64, n_tiles, "layer {l}");
                let mut rows_sum = 0u32;
                for (i, t) in tiles.iter().enumerate() {
                    let rows = if i as u64 + 1 == n_tiles {
                        h - poh * (n_tiles as u32 - 1) // exact remainder
                    } else {
                        poh
                    };
                    assert!((1..=poh).contains(&rows), "layer {l} tile {i}: {rows} rows");
                    assert_eq!(
                        t.compute_cycles,
                        acc.ces[*ce]
                            .parallelism
                            .tile_latency_cycles(conv.dims, rows),
                        "layer {l} tile {i} latency disagrees with its exact row count"
                    );
                    rows_sum += rows;
                }
                assert_eq!(
                    rows_sum, h,
                    "layer {l}: tile heights must partition the OFM"
                );
                if h == 1 {
                    one_row_layers += 1;
                    assert_eq!(tiles.len(), 1, "a 1-row OFM is a single tile");
                }
            }
        }
        assert!(
            one_row_layers >= 2,
            "the degenerate model must exercise 1-row OFMs"
        );
    }

    #[test]
    fn tile_counts_scale_with_rows() {
        let (acc, _, g) = build(templates::Architecture::SegmentedRr, 2);
        // Pipelined tiles: one per OFM row per layer (+ prefetches).
        let rows: usize = acc.convs.iter().map(|c| c.ofm.height as usize).sum();
        let compute_tiles = g.tiles.iter().filter(|t| t.ce.is_some()).count();
        assert_eq!(compute_tiles, rows);
    }
}
