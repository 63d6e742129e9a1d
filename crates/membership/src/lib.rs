//! Process-group membership: views and the view-change protocol.
//!
//! The paper assumes its entities are "organized as members of a group"
//! (§3) with the group communication layer — ISIS-style — maintaining who
//! belongs. This crate is that layer, and the one home of its decisions:
//!
//! - [`GroupView`]: a numbered snapshot of the membership.
//! - [`ViewManager`]: the whole view-change protocol of one member as a
//!   sans-IO machine. It detects failures from each frame's liveness,
//!   decides who proposes (coordinator takeover included), runs the
//!   **flush** round (members stop sending, relay unstable messages,
//!   acknowledge) so that view changes are *virtually synchronous* — every
//!   message is delivered in the view it was sent in — admits joiners,
//!   and retries every lost membership message.
//!
//! The machine consumes inputs and returns [`ManagerAction`]s: sends of
//! [`MembershipMsg`]s, plus two actions only the host can perform. On
//! *flush* the host relays the removed members' messages and reports done;
//! on *installed* it reconfigures its layers for the new view. The
//! protocol stack in `causal-core` is one such host; tests drive the
//! machine directly.
//!
//! # Examples
//!
//! ```
//! use causal_clocks::ProcessId;
//! use causal_membership::GroupView;
//!
//! let view = GroupView::initial(3);
//! assert_eq!(view.len(), 3);
//! assert!(view.contains(ProcessId::new(2)));
//! assert_eq!(view.coordinator(), ProcessId::new(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod view;

pub use manager::{ManagerAction, MembershipMsg, ViewManager};
pub use view::{GroupView, ViewId};
