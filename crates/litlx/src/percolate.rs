//! Percolation directives.
//!
//! §2.3: LITL-X supports "percolation of program instruction blocks and
//! data at the site of the intended computation, to eliminate waiting for
//! remote accesses, which are determined at run time prior to actual
//! block execution."
//!
//! A [`Directive`] bundles the pieces the HTMT-style percolation model
//! prestages: the *task* (an action), its *data* (the serialized
//! arguments, carried in the parcel), and the *site* (an accelerator
//! locality). Issue it with [`Directive::issue`] — from the driver or
//! from inside a PX-thread — and the destination's staging buffer takes
//! delivery; the precious resource executes without a single remote
//! access.

use px_core::action::Action;
use px_core::error::PxResult;
use px_core::gid::{Gid, LocalityId};
use px_core::origin::Caller;
use px_core::parcel::Continuation;
use px_core::percolation;

/// A percolation directive: stage action `A` at a site before execution.
#[derive(Debug, Clone)]
pub struct Directive<A: Action> {
    /// Destination (precious-resource) locality.
    pub site: LocalityId,
    /// Object the staged action applies to (often the site's root).
    pub target: Gid,
    /// Arguments to prestage alongside the task.
    pub args: A::Args,
    /// What happens with the result.
    pub cont: Continuation,
}

impl<A: Action> Directive<A> {
    /// Directive for the site's locality root (pure compute block).
    pub fn block(site: LocalityId, args: A::Args) -> Directive<A> {
        Directive {
            site,
            target: Gid::locality_root(site),
            args,
            cont: Continuation::none(),
        }
    }

    /// Attach a continuation for the block's result.
    pub fn with_continuation(mut self, cont: Continuation) -> Directive<A> {
        self.cont = cont;
        self
    }

    /// Issue as `from`'s work: the driver's `Runtime` or, inside a
    /// PX-thread, its `Ctx`.
    pub fn issue(self, from: &impl Caller) -> PxResult<()> {
        percolation::percolate::<A>(from, self.site, self.target, &self.args, self.cont)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_core::prelude::*;

    struct HeavyKernel;
    impl Action for HeavyKernel {
        const NAME: &'static str = "litlx-test/heavy_kernel";
        type Args = Vec<u64>;
        type Out = u64;
        fn execute(ctx: &mut Ctx<'_>, _t: Gid, data: Vec<u64>) -> u64 {
            // All data arrived with the parcel: no remote access here.
            assert_eq!(ctx.here(), LocalityId(1), "runs at the staged site");
            data.iter().sum()
        }
    }

    #[test]
    fn directive_executes_at_site_with_data() {
        let rt = RuntimeBuilder::new(Config::small(2, 1).with_accelerator(LocalityId(1)))
            .register::<HeavyKernel>()
            .build()
            .unwrap();
        let out = rt.new_future::<u64>(LocalityId(0));
        Directive::<HeavyKernel>::block(LocalityId(1), vec![1, 2, 3, 4])
            .with_continuation(Continuation::set(out.gid()))
            .issue(&rt)
            .unwrap();
        assert_eq!(out.wait(&rt).unwrap(), 10);
        // The task executed from the staging buffer.
        let stats = rt.stats();
        assert_eq!(stats.localities[1].staged_executed, 1);
        rt.shutdown();
    }

    #[test]
    fn directive_from_thread() {
        let rt = RuntimeBuilder::new(Config::small(2, 1).with_accelerator(LocalityId(1)))
            .register::<HeavyKernel>()
            .build()
            .unwrap();
        let out = rt.new_future::<u64>(LocalityId(0));
        let out_gid = out.gid();
        rt.spawn_at(LocalityId(0), move |ctx| {
            Directive::<HeavyKernel>::block(LocalityId(1), vec![10, 20])
                .with_continuation(Continuation::set(out_gid))
                .issue(ctx)
                .unwrap();
        });
        assert_eq!(out.wait(&rt).unwrap(), 30);
        rt.shutdown();
    }
}
