/**
 * @file
 * Atomic-step executor driving the *live* protocol controllers.
 *
 * The model checker never re-implements the protocol: every
 * transition is computed by restoring a GlobalState into real
 * CacheController / DirectoryController instances (line by line and
 * entry by entry, in the controllers' own LineState and DirEntry),
 * applying one action, and reading the controllers back. The
 * transition relation explored is therefore the implementation's, by
 * construction -- the checker cannot drift from the code it checks.
 *
 * Step semantics (Murphi-style atomic handlers): one action delivers
 * one message (or issues one processor access); the receiving
 * handler runs to completion, including its scheduled continuations
 * (the event queue is drained after every handler). Messages the
 * handlers emit are captured instead of sent: remote ones are
 * appended to the model's per-channel FIFOs, home-node-local ones
 * (src == dst) are delivered synchronously within the same step --
 * matching Stache's local optimization, under which local messages
 * are invisible to the network. A step is thus a maximal cascade of
 * local handler executions triggered by one scheduler choice.
 *
 * Handlers run under a FailureTrap: a cosmos_assert / cosmos_panic
 * inside the protocol (e.g. an unexpected message under network
 * reordering) becomes a failed Result, not a dead process, so the
 * exploration can record the violation and continue.
 *
 * Restores are lazy. The stepper remembers which slice of a state
 * each controller holds: after a successful step every controller
 * holds its slice of `next` (the ones a handler ran on are read back
 * into it, the rest never changed), so the next step restores only
 * the controllers whose slice differs. After a trapped failure the
 * controllers are half-mutated and everything is restored. Fields a
 * read-back normalizes away (a quiescent directory entry's last
 * request and its upgrade latch) are rewritten when the entry serves
 * its next request, before anything reads them, so a held controller
 * behaves exactly like a freshly restored one;
 * Stepper.ReusedStepperMatchesFreshOne pins that.
 */

#ifndef COSMOS_MODEL_STEPPER_HH
#define COSMOS_MODEL_STEPPER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/addr.hh"
#include "model/state.hh"
#include "proto/cache_controller.hh"
#include "proto/directory_controller.hh"
#include "proto/transition_table.hh"
#include "sim/event_queue.hh"

namespace cosmos::model
{

static_assert(proto::num_msg_types <= 16,
              "Sample::emissions is a 16-bit mask of message types");

/**
 * One handler invocation, in the declared table's terms: the role
 * that ran, the addressed block's state before and after the atomic
 * step (a LineState, or a proto::DirPhase for the directory), the
 * input (a MsgType or proto::input_proc_*), and the guard bits the
 * dispatch derived. The row it dispatched through is
 * ProtocolTable::find of (role, pre, input, guard).
 */
struct Sample
{
    proto::Role role{};
    std::uint8_t pre = 0;
    std::uint8_t post = 0;
    std::uint8_t input = 0;
    proto::GuardBits guard = proto::guard_none;
    /** Bit t set when the handler emitted a message of type t
     *  (multiplicities and order abstracted away, like a row's
     *  emits). */
    std::uint16_t emissions = 0;
};

/** Executes single model transitions against the live controllers. */
class Stepper
{
  public:
    explicit Stepper(const ModelConfig &mc);

    /** Outcome of one atomic step. */
    struct Result
    {
        GlobalState next{};
        /** A trapped assertion/panic fired inside a handler; next is
         *  meaningless and the state is terminal. */
        bool failed = false;
        std::string failureMsg;
        /** One sample per handler invocation in the cascade. */
        std::vector<Sample> samples;
    };

    /** The all-invalid, all-idle, empty-network initial state. */
    static GlobalState initialState() { return GlobalState{}; }

    /** Apply @p a to @p s. */
    void step(const GlobalState &s, const Action &a, Result &out);

    const ModelConfig &modelConfig() const { return mc_; }
    const MachineConfig &machineConfig() const { return cfg_; }

    /** The declared transition table the controllers dispatch
     *  through. */
    const proto::ProtocolTable &table() const { return table_; }

  private:
    /** Restore the controllers whose slice of @p s differs from the
     *  one they hold. */
    void load(const GlobalState &s);
    /** Read the controllers a handler ran on this step into @p out. */
    void readBack(GlobalState &out);
    void restoreCache(NodeId n, const GlobalState &s);
    void restoreDirectory(NodeId n, const GlobalState &s);
    /** Directory @p n's entry of @p block (an absent entry reads as
     *  idle): read-backs and each handler's pre- and post-phase read
     *  the directory through it. */
    const proto::DirEntry &entryOf(NodeId n, Addr block) const;
    void runCascade(Result &out, std::vector<proto::Msg> &worklist,
                    GlobalState &work);
    void drainInto(Sample &sample, std::vector<proto::Msg> &worklist,
                   GlobalState &work, NodeId handled);

    proto::Msg toMsg(const CompactMsg &m) const;
    CompactMsg fromMsg(const proto::Msg &m) const;
    unsigned blockIdx(Addr block) const;

    ModelConfig mc_;
    MachineConfig cfg_;
    AddrMap amap_;
    /** Declared before the controllers: they keep a reference. */
    proto::ProtocolTable table_;
    sim::EventQueue eq_;
    std::vector<std::unique_ptr<proto::CacheController>> caches_;
    std::vector<std::unique_ptr<proto::DirectoryController>> dirs_;

    /** Messages captured from the controllers' send hook. */
    std::vector<proto::Msg> captured_;
    /** Home-local messages awaiting delivery within the step. */
    std::vector<proto::Msg> worklist_;

    /** The state whose controller slices the controllers hold; bit n
     *  of cacheHeld_ / dirHeld_ says whether cache / directory n
     *  holds its slice of it (clear: restore before use). */
    GlobalState held_{};
    std::uint32_t cacheHeld_ = 0;
    std::uint32_t dirHeld_ = 0;
    /** Bit n: a handler ran on cache / directory n this step. */
    std::uint32_t cacheTouched_ = 0;
    std::uint32_t dirTouched_ = 0;
};

} // namespace cosmos::model

#endif // COSMOS_MODEL_STEPPER_HH
