//! One module per paper table/figure; each exposes `run(...) -> Report`.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — architecture comparison on ResNet-50/ZCU102 |
//! | [`table2`] | Table II — evaluation boards |
//! | [`table3`] | Table III — evaluated CNNs |
//! | [`table4`] | Table IV — model accuracy (150 experiments) + §V-B predictions |
//! | [`table5`] | Table V — best architectures per board/CNN/metric |
//! | [`fig5`] | Fig. 5 — throughput vs accesses, ResNet-50/ZC706 |
//! | [`fig6`] | Fig. 6 — per-segment compute/memory breakdown |
//! | [`fig7`] | Fig. 7 — weights-vs-FMs access breakdown |
//! | [`fig8`] | Fig. 8 — throughput vs buffers, Xception/VCU110 |
//! | [`fig9`] | Fig. 9 — per-segment buffers and underutilization |
//! | [`fig10`] | Fig. 10 — custom design-space exploration |
//! | [`speed`] | §I/§V-E — evaluation-speed claims |
//! | [`ablation`] | `docs/design.md` — design-choice ablations |
//! | [`compression`] | §V-D follow-through — targeted weight compression |
//! | [`guided`] | Guided-vs-random front quality at equal budget (beyond the paper) |

pub mod ablation;
pub mod compression;
pub mod eval_speed;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod guided;
pub mod speed;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
