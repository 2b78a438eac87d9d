//! Seeded datasets. The benchmark's `--seed` goes into the `seed` field of
//! each generator's config; the scale picks the generator's table sizes.

use datagen::{mas, scale, tpch, MasConfig, ScaleConfig, TpchConfig};
use datalog::Program;
use storage::Instance;
use workloads::Workload;

/// The three generated universes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Universe {
    Mas,
    Tpch,
    Zipf,
}

/// A generated instance with the programs written against it.
pub struct Dataset {
    pub db: Instance,
    pub workloads: Vec<Workload>,
}

impl Dataset {
    pub fn generate(universe: Universe, scale_factor: f64, seed: u64) -> Dataset {
        match universe {
            Universe::Mas => {
                let data = mas::generate(&MasConfig {
                    seed,
                    ..MasConfig::scaled(scale_factor)
                });
                let workloads = workloads::mas_programs(&data);
                Dataset {
                    db: data.db,
                    workloads,
                }
            }
            Universe::Tpch => {
                let data = tpch::generate(&TpchConfig {
                    seed,
                    ..TpchConfig::scaled(scale_factor)
                });
                let workloads = workloads::tpch_programs(&data);
                Dataset {
                    db: data.db,
                    workloads,
                }
            }
            Universe::Zipf => {
                let data = scale::generate(&ScaleConfig {
                    seed,
                    ..ScaleConfig::scaled(scale_factor)
                });
                let workloads = workloads::zipf_programs(&data);
                Dataset {
                    db: data.db,
                    workloads,
                }
            }
        }
    }

    pub fn program(&self, name: &str) -> Program {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no workload named {name}"))
            .program
            .clone()
    }
}
