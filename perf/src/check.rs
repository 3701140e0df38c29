//! Answer checking and failure accounting.
//!
//! Every operation the harness asks of the system passes through a
//! [`Checker`]: an `Err`, a wrong id list or a wrong result count is a
//! failed operation, counted against the number attempted. The run's exit
//! code and its `error_rate` come from these two counts alone.

use std::fmt::Display;

/// How many failures are kept verbatim for the report.
const KEPT_FAILURES: usize = 8;

/// Counts operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checker {
    pub ops: u64,
    pub failed: u64,
    /// The first few failures, for the report and the console.
    pub failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, what: &dyn Display, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// Full check: the returned ids, sorted, must equal `expected_sorted`.
    pub fn ids<E: Display>(
        &mut self,
        what: impl Display,
        got: Result<&[u64], E>,
        expected_sorted: &[u64],
    ) -> bool {
        self.ops += 1;
        match got {
            Err(e) => self.fail(&what, format!("error: {e}")),
            Ok(ids) => {
                let mut sorted = ids.to_vec();
                sorted.sort_unstable();
                if sorted == expected_sorted {
                    return true;
                }
                self.fail(
                    &what,
                    format!(
                        "wrong ids: got {} expected {}",
                        sorted.len(),
                        expected_sorted.len()
                    ),
                );
            }
        }
        false
    }

    /// Cheap check for the timed loop: the result count must match.
    pub fn count<E: Display>(
        &mut self,
        what: impl Display,
        got: Result<usize, E>,
        expected: usize,
    ) -> bool {
        self.ops += 1;
        match got {
            Ok(count) if count == expected => return true,
            Ok(count) => self.fail(
                &what,
                format!("wrong count: got {count} expected {expected}"),
            ),
            Err(e) => self.fail(&what, format!("error: {e}")),
        }
        false
    }

    /// An operation with no answer to compare (an ingest, a reopen).
    pub fn ok<T, E: Display>(&mut self, what: impl Display, got: Result<T, E>) -> Option<T> {
        self.ops += 1;
        match got {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(&what, format!("error: {e}"));
                None
            }
        }
    }

    /// Failed or wrong operations as a share of those attempted.
    pub fn error_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.failed as f64 / self.ops as f64
        }
    }
}

/// `--self-test`: feeds the checker one deliberately wrong id list, one
/// wrong count and one `Err`, and requires each to be counted as a failed
/// operation (and the right answers not to be).
pub fn self_test() -> Result<(), String> {
    let mut checker = Checker::default();
    let expected = [1u64, 2, 3];
    let require = |cond: bool, what: &str| cond.then_some(()).ok_or(what.to_string());

    require(
        checker.ids("right ids", Ok::<_, String>(&[3, 1, 2][..]), &expected),
        "a right id list (any order) was rejected",
    )?;
    require(
        !checker.ids("wrong ids", Ok::<_, String>(&[1, 2, 4][..]), &expected),
        "a wrong id list was accepted",
    )?;
    require(
        !checker.ids("missing id", Ok::<_, String>(&[1, 2][..]), &expected),
        "a short id list was accepted",
    )?;
    require(
        !checker.ids("err", Err::<&[u64], _>("disk failed"), &expected),
        "an Err was accepted as an answer",
    )?;
    require(
        checker.count("right count", Ok::<_, String>(3), 3),
        "a right count was rejected",
    )?;
    require(
        !checker.count("wrong count", Ok::<_, String>(2), 3),
        "a wrong count was accepted",
    )?;
    require(
        checker.ok("err op", Err::<(), _>("refused")).is_none(),
        "an Err operation was accepted",
    )?;
    require(
        checker.ops == 7 && checker.failed == 5,
        "ops/failed accounting is off",
    )?;
    require(
        (checker.error_rate() - 5.0 / 7.0).abs() < 1e-12,
        "error_rate is not failed / attempted",
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
