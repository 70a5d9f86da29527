/**
 * @file
 * A DirtyBudgetController on its own one-shard BudgetPool — the shape
 * every controller takes, split the way ViyojitManager splits its
 * pool — for tests that drive a single controller over a mock backend.
 */

#ifndef VIYOJIT_TESTS_POOLED_CONTROLLER_HH
#define VIYOJIT_TESTS_POOLED_CONTROLLER_HH

#include <cstdint>

#include "core/budget_pool.hh"
#include "core/controller.hh"

namespace viyojit::core
{

struct PooledController
{
    /** A pool of config.dirtyBudgetPages and its one controller. */
    PooledController(PagingBackend &backend, const ViyojitConfig &config)
        : split(splitBudget(config.dirtyBudgetPages, 1)),
          pool(config.dirtyBudgetPages, split.poolPages),
          ctl(backend, config, pool, split)
    {}

    /** Move the budget to `pages`, as ViyojitManager::setDirtyBudget
     *  does. */
    void
    retune(std::uint64_t pages)
    {
        retuneBudget(pool, 1, pages,
                     [this](std::size_t,
                            FunctionRef<void(DirtyBudgetController &)>
                                fn) { fn(ctl); });
    }

    BudgetSplit split;
    BudgetPool pool;
    DirtyBudgetController ctl;
};

} // namespace viyojit::core

#endif // VIYOJIT_TESTS_POOLED_CONTROLLER_HH
