//! The output check of the wire workloads: every served session must match
//! an in-process `OnlineLearner` fed the same batches by the same build,
//! prediction for prediction, and its final checkpoint must match byte for
//! byte. Runs after the timed phases and feeds no metric.

use snn_data::Image;
use snn_online::OnlineLearner;
use snn_serve::SessionSpec;

/// Everything the wire returned for one session, in stream order.
pub struct SessionLog<'a> {
    pub id: String,
    pub spec: SessionSpec,
    /// Every batch the session ingested, in order.
    pub batches: Vec<&'a [Image]>,
    /// The predictions the wire returned for each batch.
    pub predictions: Vec<Vec<Option<u8>>>,
    /// The session's checkpoint at the end of the run.
    pub final_checkpoint: Vec<u8>,
}

fn check(log: &SessionLog) -> Result<(), String> {
    if log.batches.len() != log.predictions.len() {
        return Err(format!(
            "{}: {} batches sent, {} answered",
            log.id,
            log.batches.len(),
            log.predictions.len()
        ));
    }
    let mut reference = OnlineLearner::new(log.spec.online_config());
    for (i, (batch, served)) in log.batches.iter().zip(&log.predictions).enumerate() {
        let want = reference
            .ingest_batch(batch)
            .map_err(|e| format!("{}: reference learner failed: {e}", log.id))?;
        if &want != served {
            return Err(format!("{}: predictions differ at batch {i}", log.id));
        }
    }
    if reference.checkpoint().to_bytes() != log.final_checkpoint {
        return Err(format!("{}: final checkpoint differs", log.id));
    }
    Ok(())
}

/// Replays every session on up to `threads` threads; returns one message
/// per session that does not match.
pub fn replay(logs: &[SessionLog], threads: usize) -> Vec<String> {
    let threads = threads.clamp(1, logs.len().max(1));
    let mut failures: Vec<(usize, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    logs.iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .filter_map(|(i, log)| check(log).err().map(|e| (i, e)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    failures.sort();
    failures.into_iter().map(|(_, e)| e).collect()
}
