//! Authentication: the password store.
//!
//! Passwords are never stored; a salted, iterated hash is. The hash is a
//! small in-tree construction (an FNV-1a-based sponge) rather than an
//! external dependency, keeping the trusted base self-contained — the same
//! instinct that drives the whole kernel project.
//!
//! Where this code *runs* is configuration-dependent and is the point of
//! the login-unification removal (see [`crate::subsystem`]): in the legacy
//! system the answerer and its password checks are privileged ring-0 code;
//! in the kernel configuration they execute as an ordinary protected
//! subsystem, and only the tiny "create a process with these attributes"
//! gate stays privileged.

use std::collections::HashMap;

use mks_fs::UserId;
use mks_hw::Fnv64;
use mks_mls::Label;

/// Iterations of the password hash (slows guessing).
const HASH_ROUNDS: usize = 1000;

/// A 64-bit salted iterated hash of a password.
fn password_hash(salt: u64, password: &str) -> u64 {
    let mut h = Fnv64::from_state(Fnv64::OFFSET_BASIS ^ salt);
    for _ in 0..HASH_ROUNDS {
        let x = h.bytes(password.as_bytes()).finish();
        h = Fnv64::from_state((x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    h.finish()
}

/// One registered principal.
#[derive(Clone, Debug)]
struct Account {
    salt: u64,
    hash: u64,
    /// The clearance ceiling the principal may log in at.
    clearance: Label,
    /// Consecutive failures since the last success (lockout counter).
    failures: u32,
    locked: bool,
}

/// Authentication failures. The error deliberately does not distinguish
/// "no such user" from "wrong password" — the same no-oracle principle as
/// the file system's phantoms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthError {
    /// Bad principal or password.
    BadCredentials,
    /// Too many failures; the account is locked.
    Locked,
    /// Requested login label exceeds the principal's clearance.
    ClearanceExceeded,
}

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuthError::BadCredentials => write!(f, "incorrect login"),
            AuthError::Locked => write!(f, "account locked"),
            AuthError::ClearanceExceeded => write!(f, "label exceeds clearance"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Failures allowed before lockout.
const MAX_FAILURES: u32 = 5;

/// The password/clearance database.
#[derive(Debug, Default)]
pub struct AuthDb {
    accounts: HashMap<String, Account>,
    salt_seq: u64,
}

impl AuthDb {
    /// An empty database.
    pub fn new() -> AuthDb {
        AuthDb::default()
    }

    fn key(user: &UserId) -> String {
        format!("{}.{}", user.person, user.project)
    }

    /// Registers (or re-registers) a principal.
    pub fn register(&mut self, user: &UserId, password: &str, clearance: Label) {
        self.salt_seq += 1;
        let salt = self.salt_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let account = Account {
            salt,
            hash: password_hash(salt, password),
            clearance,
            failures: 0,
            locked: false,
        };
        self.accounts.insert(Self::key(user), account);
    }

    /// Verifies credentials and the requested login label; on success
    /// returns the label the process may be created with.
    pub fn authenticate(
        &mut self,
        user: &UserId,
        password: &str,
        requested: Label,
    ) -> Result<Label, AuthError> {
        let Some(acct) = self.accounts.get_mut(&Self::key(user)) else {
            // Burn the same hashing work for unknown users so timing does
            // not reveal account existence.
            let _ = password_hash(0, password);
            return Err(AuthError::BadCredentials);
        };
        if acct.locked {
            return Err(AuthError::Locked);
        }
        if password_hash(acct.salt, password) != acct.hash {
            acct.failures += 1;
            if acct.failures >= MAX_FAILURES {
                acct.locked = true;
            }
            return Err(AuthError::BadCredentials);
        }
        acct.failures = 0;
        if !acct.clearance.dominates(&requested) {
            return Err(AuthError::ClearanceExceeded);
        }
        Ok(requested)
    }

    /// Administrative unlock.
    pub fn unlock(&mut self, user: &UserId) -> bool {
        match self.accounts.get_mut(&Self::key(user)) {
            Some(a) => {
                a.locked = false;
                a.failures = 0;
                true
            }
            None => false,
        }
    }

    /// Number of registered principals.
    pub fn nr_accounts(&self) -> usize {
        self.accounts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_mls::{Compartments, Level};

    fn jones() -> UserId {
        UserId::new("Jones", "CSR", "a")
    }

    fn secret() -> Label {
        Label::new(Level::SECRET, Compartments::NONE)
    }

    #[test]
    fn register_then_authenticate() {
        let mut db = AuthDb::new();
        db.register(&jones(), "pdp-10 forever", secret());
        assert_eq!(
            db.authenticate(&jones(), "pdp-10 forever", Label::BOTTOM),
            Ok(Label::BOTTOM)
        );
    }

    #[test]
    fn wrong_password_and_unknown_user_are_indistinguishable() {
        let mut db = AuthDb::new();
        db.register(&jones(), "right", secret());
        let wrong = db.authenticate(&jones(), "wrong", Label::BOTTOM);
        let ghost = db.authenticate(&UserId::new("Ghost", "X", "a"), "any", Label::BOTTOM);
        assert_eq!(wrong, Err(AuthError::BadCredentials));
        assert_eq!(ghost, Err(AuthError::BadCredentials));
    }

    #[test]
    fn clearance_bounds_the_login_label() {
        let mut db = AuthDb::new();
        db.register(&jones(), "pw", secret());
        assert!(db.authenticate(&jones(), "pw", secret()).is_ok());
        let ts = Label::new(Level::TOP_SECRET, Compartments::NONE);
        assert_eq!(
            db.authenticate(&jones(), "pw", ts),
            Err(AuthError::ClearanceExceeded)
        );
    }

    #[test]
    fn repeated_failures_lock_the_account() {
        let mut db = AuthDb::new();
        db.register(&jones(), "pw", secret());
        for _ in 0..MAX_FAILURES {
            let _ = db.authenticate(&jones(), "guess", Label::BOTTOM);
        }
        assert_eq!(
            db.authenticate(&jones(), "pw", Label::BOTTOM),
            Err(AuthError::Locked)
        );
        assert!(db.unlock(&jones()));
        assert!(db.authenticate(&jones(), "pw", Label::BOTTOM).is_ok());
    }

    #[test]
    fn success_resets_the_failure_counter() {
        let mut db = AuthDb::new();
        db.register(&jones(), "pw", secret());
        for _ in 0..MAX_FAILURES - 1 {
            let _ = db.authenticate(&jones(), "guess", Label::BOTTOM);
        }
        assert!(db.authenticate(&jones(), "pw", Label::BOTTOM).is_ok());
        // Counter reset: more guesses allowed before lockout.
        let _ = db.authenticate(&jones(), "guess", Label::BOTTOM);
        assert!(db.authenticate(&jones(), "pw", Label::BOTTOM).is_ok());
    }

    #[test]
    fn same_password_different_salt_different_hash() {
        let mut db = AuthDb::new();
        db.register(&jones(), "pw", secret());
        db.register(&UserId::new("Smith", "CSR", "a"), "pw", secret());
        let a = db.accounts.get("Jones.CSR").unwrap().hash;
        let b = db.accounts.get("Smith.CSR").unwrap().hash;
        assert_ne!(a, b);
    }
}
