//! The host block printed with every result, so figures from different
//! machines are never compared blindly.

use std::path::Path;

use deuce_crypto::{OtpEngine, SecretKey};

/// The host block as a JSON object: core count, CPU model, the AES
/// tier the engine resolves to, and the git revision of the checkout
/// (`unknown` outside a git checkout).
pub fn json(checkout: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let aes = OtpEngine::new(&SecretKey::from_seed(0)).aes_backend();
    let revision = git_revision(checkout).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"aes_backend\": \"{}\", \"git_revision\": \"{}\"}}",
        escape(&cpu),
        aes.name(),
        escape(&revision)
    )
}

/// Resolves `HEAD` by reading `.git` directly: no `git` process, and
/// nothing outside the checkout is read.
fn git_revision(checkout: &Path) -> Option<String> {
    let git = checkout.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}
