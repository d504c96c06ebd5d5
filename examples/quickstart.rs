//! Quickstart: build a BiN table, inspect its structure, pre-train a tiny
//! TabBiN family and compare table embeddings.
//!
//! Run with: `cargo run --example quickstart`

use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_table::coords::assign_coordinates;
use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn main() {
    // 1. A non-1NF table with hierarchical metadata and nesting (Figure 1).
    let fig1 = figure1_table();
    println!("table: {}", fig1.caption);
    println!("kind: {:?}, nested tables: {}", fig1.kind(), fig1.nested_tables().len());

    // 2. Bi-dimensional coordinates.
    let coords = assign_coordinates(&fig1);
    let c = coords.data_coord(0, 2).expect("cell (0,2) exists");
    println!("coordinate of the nested-table cell: {}", c.render());

    // 3. Pre-train a tiny TabBiN family on three sample tables.
    let tables = vec![fig1, table1_sample(), table2_relational()];
    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 7);
    let curves =
        family.pretrain(&tables, &PretrainOptions { steps: 30, batch: 2, ..Default::default() });
    println!(
        "pre-trained 4 segment models; row-model loss {:.3} -> {:.3}",
        curves[0].first().map(|s| s.loss).unwrap_or(0.0),
        curves[0].last().map(|s| s.loss).unwrap_or(0.0),
    );

    // 4. Table embeddings compose per-segment vectors (tblcomp2 = data ⊕
    //    HMD ⊕ VMD ⊕ caption). The batched path embeds the whole corpus
    //    through the same fused kernel and composite as the per-table call,
    //    so the two agree bit for bit.
    let all = BatchEncoder::new(&family).embed_tables(&tables);
    let e_fig1 = family.embed_table(&tables[0]);
    assert_eq!(all[0], e_fig1, "batched and per-table paths must agree");
    println!("table embedding (tblcomp2) dimension: {}", e_fig1.len());

    // 5. Entity embeddings: two drugs should be closer to each other than a
    //    drug is to a city — the inferred-type embedding (E_type) carries
    //    this even at tiny scale.
    let ram = family.embed_entity("ramucirumab");
    let bev = family.embed_entity("bevacizumab");
    let city = family.embed_entity("tallahassee");
    println!("cos(ramucirumab, bevacizumab) = {:.3}  (drug vs drug)", cosine(&ram, &bev));
    println!("cos(ramucirumab, tallahassee) = {:.3}  (drug vs city)", cosine(&ram, &city));
}
