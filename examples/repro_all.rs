//! Regenerates the entire reconstructed evaluation (all tables and
//! figures) into `results/`, printing the Markdown as it goes.
//!
//! Run with: `cargo run --release --example repro_all [-- --quick]`

use std::path::Path;

use nvp::experiments::{registry, run_request, CampaignRequest, ExpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick { ExpConfig::quick() } else { ExpConfig::default() };
    eprintln!("regenerating {} registered experiments ...", registry().len());
    let result = run_request(&CampaignRequest::all(cfg))?;
    let files = result.write(Path::new("results"))?;
    for table in &result.tables {
        println!("{}", table.to_markdown());
    }
    eprintln!("wrote {} artifact files to results/", files.len());
    Ok(())
}
