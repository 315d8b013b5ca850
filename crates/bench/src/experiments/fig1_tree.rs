//! Regenerates **Fig. 1**: the model-tuned reduction tree for 64 cores on
//! KNL in cache mode. The tree is non-trivial — "it is unlikely that this
//! tree would have been found with traditional algorithm design
//! techniques."

use crate::modelfit::fit_model_observed;
use crate::runconf::RunConf;
use crate::sweep::TraceSink;
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, Schedule};
use knl_collectives::plan::tile_groups;
use knl_core::{optimize_tree, TreeKind};

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache);
    eprintln!("fitting capability model on {} ...", cfg.label());
    let model = fit_model_observed(&cfg, &conf.effort.suite_params(), true, conf, sink);

    // 64 cores, one thread per core (fill-tiles): 32 tile groups of 2; the
    // inter-tile tree spans the 32 tile leaders.
    let groups = tile_groups(64, Schedule::FillTiles, cfg.num_cores());
    let plan = optimize_tree(&model, groups.len(), TreeKind::Reduce);

    println!(
        "Model-tuned reduction tree, 64 cores, {} ({} tiles):",
        cfg.label(),
        groups.len()
    );
    println!("(each shown node is a tile leader; its tile mate attaches flat)");
    println!();
    println!("{}", plan.tree.render());
    println!("modeled completion: {:.0} ns", plan.cost_ns);
    println!("shape (degree per node): {}", plan.tree.compact());
    println!("level widths: {:?}", plan.tree.level_widths());

    // Compare against classic shapes under the same model.
    use knl_core::tree_opt::{binomial_tree, flat_tree, tree_cost};
    let binom = tree_cost(&model, &binomial_tree(groups.len()), TreeKind::Reduce);
    let flat = tree_cost(&model, &flat_tree(groups.len()), TreeKind::Reduce);
    println!();
    println!(
        "modeled cost of binomial tree: {binom:.0} ns ({:.2}x tuned)",
        binom / plan.cost_ns
    );
    println!(
        "modeled cost of flat tree:     {flat:.0} ns ({:.2}x tuned)",
        flat / plan.cost_ns
    );
}
